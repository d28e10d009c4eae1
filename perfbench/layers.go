package main

// The traced per-layer breakdown. Each round runs one workload input
// three ways at one worker: untraced end to end, traced end to end
// (load, EstimateContext, Result.JSON), and decomposed, where every layer's
// public entry points are called separately in pipeline order. Where one
// layer calls another internally (structure calls csg, valuefit calls
// profile), the inner layer's calls are replayed first on the same inputs
// and the outer layer's self time is the difference.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"efes/internal/core"
	"efes/internal/csg"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// stageSumTolerance bounds |sum of decomposed stages / untraced estimate - 1|
// on paper-cold: the decomposition must account for the whole estimate.
const stageSumTolerance = 0.20

// probeInput is one scenario the breakdown measures: load builds it from
// the workload's own input format, ref is its high-quality answer.
type probeInput struct {
	load func() (*core.Scenario, error)
	ref  []byte
}

// probe runs breakdown rounds and keeps per-round stage times.
type probe struct {
	rec    *recorder
	inputs []probeInput
	cache  *persist.Cache
	fp     string
	rounds []map[string]float64
	counts map[string]float64
}

func newProbe(rec *recorder, inputs []probeInput, dir string) (*probe, error) {
	cache, err := persist.Open(filepath.Join(dir, "probe-cache"), persist.Options{})
	if err != nil {
		return nil, err
	}
	fp, err := persist.ConfigFingerprint(effort.DefaultConfig())
	if err != nil {
		cache.Close()
		return nil, err
	}
	return &probe{rec: rec, inputs: inputs, cache: cache, fp: fp}, nil
}

func (p *probe) close() error { return p.cache.Close() }

// clock accumulates span durations by stage name.
type clock struct {
	rec    *recorder
	id     int64
	parent int
	ms     map[string]float64
}

func (c *clock) time(name string, fn func() error) error {
	i := c.rec.start(c.id, name, c.parent)
	err := fn()
	c.ms[name] += c.rec.end(i)
	return err
}

// run repeats rounds until the deadline, and at least three times.
func (p *probe) run(deadline time.Time, t *tally) error {
	for r := 0; r < 3 || time.Now().Before(deadline); r++ {
		if err := p.round(int64(r), t); err != nil {
			return err
		}
	}
	return nil
}

func (p *probe) round(r int64, t *tally) error {
	ms := map[string]float64{}
	// Each part starts from a collected heap, so that none pays for the
	// garbage of the part before it.
	runtime.GC()
	// Untraced: what the end-to-end iteration costs at one worker.
	start := time.Now()
	for _, in := range p.inputs {
		data, err := wholeEstimate(in, nil)
		if err != nil {
			return err
		}
		verify(t, data, in.ref)
	}
	ms["untraced"] = float64(time.Since(start).Nanoseconds()) / 1e6

	runtime.GC()
	whole := &clock{rec: p.rec, id: 2 * r, ms: ms}
	whole.parent = p.rec.start(whole.id, "whole", -1)
	var alloc float64
	for _, in := range p.inputs {
		data, err := wholeEstimate(in, whole)
		if err != nil {
			return err
		}
		alloc += whole.ms["alloc_mb"]
		verify(t, data, in.ref)
	}
	ms["traced"] = p.rec.end(whole.parent)
	ms["core.alloc_mb"] = alloc
	delete(ms, "alloc_mb")

	runtime.GC()
	dec := &clock{rec: p.rec, id: 2*r + 1, ms: map[string]float64{}}
	dec.parent = p.rec.start(dec.id, "decomposed", -1)
	counts := map[string]float64{}
	for _, in := range p.inputs {
		if err := p.decompose(in, dec, counts, t); err != nil {
			return err
		}
	}
	p.rec.end(dec.parent)
	d := dec.ms
	for _, k := range []string{"relational.vectorize", "csg.schema_graph", "csg.intern", "csg.path_search",
		"profile.busy", "mapping.detect", "structure.plan", "valuefit.plan", "mapping.plan", "effort.price",
		"match.match", "persist.scenario_hash", "persist.put"} {
		ms[k] = d[k]
	}
	ms["persist.get_us"] = d["persist.get_us"]
	ms["structure.detect_self"] = d["structure.detect"] - d["csg.schema_graph"] - d["csg.intern"] - d["csg.path_search"]
	ms["valuefit.detect_self"] = d["valuefit.detect"]
	modules := d["relational.vectorize"] + d["structure.detect"] + d["profile.busy"] + d["valuefit.detect"] +
		d["mapping.detect"] + d["structure.plan"] + d["valuefit.plan"] + d["mapping.plan"] + d["effort.price"]
	ms["core.orchestration"] = math.Max(0, ms["core.estimate"]-modules)
	// Ratios are taken within a round, where the three parts ran
	// back to back, so that drift across rounds cancels.
	ms["stage_sum_ratio"] = (d["relational.load"] + modules + d["core.export"]) / ms["untraced"]
	ms["overhead_pct"] = (ms["traced"]/ms["untraced"] - 1) * 100
	p.rounds = append(p.rounds, ms)
	p.counts = counts
	return nil
}

// verify adds one checked answer to t.
func verify(t *tally, got, want []byte) {
	t.attempted++
	if !bytes.Equal(got, want) {
		t.wrongByte++
	}
}

// wholeEstimate loads, estimates at one worker and exports; with a clock
// each call is a span.
func wholeEstimate(in probeInput, c *clock) ([]byte, error) {
	timed := func(name string, fn func() error) error {
		if c == nil {
			return fn()
		}
		return c.time(name, fn)
	}
	var scn *core.Scenario
	if err := timed("relational.load", func() (err error) { scn, err = in.load(); return }); err != nil {
		return nil, err
	}
	fw := newFramework(1)
	var before runtime.MemStats
	if c != nil {
		runtime.ReadMemStats(&before)
	}
	var res *core.Result
	if err := timed("core.estimate", func() (err error) {
		res, err = fw.EstimateContext(context.Background(), scn, effort.HighQuality)
		return
	}); err != nil {
		return nil, err
	}
	if c != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.ms["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	var data []byte
	err := timed("core.export", func() (err error) { data, err = res.JSON(); return })
	return append(data, '\n'), err
}

// decompose calls every layer of one estimate separately.
func (p *probe) decompose(in probeInput, c *clock, counts map[string]float64, t *tally) error {
	var scn *core.Scenario
	if err := c.time("relational.load", func() (err error) { scn, err = in.load(); return }); err != nil {
		return err
	}
	dbs := []*relational.Database{scn.Target}
	for _, src := range scn.Sources {
		dbs = append(dbs, src.DB)
	}
	c.time("relational.vectorize", func() error {
		for _, db := range dbs {
			for _, tb := range db.Schema.Tables() {
				for _, col := range tb.ColumnNames() {
					db.Vector(tb.Name, col)
				}
			}
		}
		return nil
	})
	for _, db := range dbs {
		counts["relational.rows_loaded"] += float64(db.TotalRows())
	}

	// csg, replayed ahead of the structure detector that calls it.
	var tg *csg.Graph
	srcGraphs := make([]*csg.Graph, len(scn.Sources))
	if err := c.time("csg.schema_graph", func() (err error) {
		if tg, err = csg.FromSchema(scn.Target.Schema); err != nil {
			return err
		}
		for i, src := range scn.Sources {
			if srcGraphs[i], err = csg.FromSchema(src.DB.Schema); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := c.time("csg.intern", func() error {
		for i, src := range scn.Sources {
			in, err := csg.FromDatabaseInterned(srcGraphs[i], src.DB)
			if err != nil {
				return err
			}
			for _, n := range srcGraphs[i].Nodes() {
				counts["csg.elements_interned"] += float64(in.NumElements(n))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	c.time("csg.path_search", func() error {
		for i, src := range scn.Sources {
			nm := csg.NodeMatch(src.Correspondences.NodeMatch())
			// The edges the structure detector searches: constrained,
			// of a table this source feeds, both ends matched.
			for _, e := range tg.Edges() {
				if !e.Card.Equal(csg.CardAny) && matched(nm, e.From.ID) && matched(nm, e.To.ID) &&
					(matched(nm, e.From.Table) || matched(nm, e.To.Table)) {
					csg.MatchRelationship(e, srcGraphs[i], nm)
				}
			}
		}
		return nil
	})
	sm := structure.New()
	var srep core.Report
	if err := c.time("structure.detect", func() (err error) { srep, err = sm.AssessComplexity(scn); return }); err != nil {
		return err
	}
	counts["structure.conflicts"] += float64(srep.ProblemCount())

	// profile, replayed ahead of the value-fit detector that calls it:
	// exactly the lookups valuefit makes, on a fresh single-worker
	// profiler that valuefit then reuses.
	prof := profile.NewProfiler(1)
	if err := c.time("profile.busy", func() error {
		for _, src := range scn.Sources {
			for _, corr := range src.Correspondences.AttributePairs() {
				if generated(scn.Target.Schema, corr.TargetTable, corr.TargetColumn) {
					continue
				}
				if _, err := prof.Column(src.DB, corr.SourceTable, corr.SourceColumn); err != nil {
					return err
				}
				if _, err := prof.Column(scn.Target, corr.TargetTable, corr.TargetColumn); err != nil {
					return err
				}
				col, _ := scn.Target.Schema.Table(corr.TargetTable).Column(corr.TargetColumn)
				if _, _, err := prof.ColumnCoerced(src.DB, corr.SourceTable, corr.SourceColumn, col.Type); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	vf := valuefit.New()
	vf.Profiler = prof
	var vrep core.Report
	if err := c.time("valuefit.detect", func() (err error) { vrep, err = vf.AssessComplexity(scn); return }); err != nil {
		return err
	}
	hits, misses := prof.Counters()
	diskHits, computes := prof.DiskCounters()
	counts["profile.computes"] += float64(computes)
	counts["profile.memo_hits"] += float64(hits)
	counts["profile.disk_hits"] += float64(diskHits)
	counts["profile.lookups"] += float64(hits + misses)
	counts["valuefit.pairs_checked"] += float64(vrep.(*valuefit.Report).PairsChecked)

	mm := mapping.New()
	var mrep core.Report
	if err := c.time("mapping.detect", func() (err error) { mrep, err = mm.AssessComplexity(scn); return }); err != nil {
		return err
	}

	q := effort.HighQuality
	var tasks []effort.Task
	for _, step := range []struct {
		name string
		m    core.Module
		rep  core.Report
	}{{"mapping.plan", mm, mrep}, {"structure.plan", sm, srep}, {"valuefit.plan", vf, vrep}} {
		if err := c.time(step.name, func() error {
			ts, err := step.m.PlanTasks(step.rep, q)
			tasks = append(tasks, ts...)
			return err
		}); err != nil {
			return err
		}
	}
	calc := effort.DefaultConfig().Calculator()
	var est *effort.Estimate
	if err := c.time("effort.price", func() (err error) { est, err = calc.Price(q, tasks); return }); err != nil {
		return err
	}
	counts["effort.tasks"] += float64(len(est.Tasks))
	res := &core.Result{Scenario: scn.Name, Reports: []core.Report{mrep, srep, vrep}, Estimate: est}
	var data []byte
	if err := c.time("core.export", func() (err error) { data, err = res.JSON(); return }); err != nil {
		return err
	}
	data = append(data, '\n')
	verify(t, data, in.ref)

	// Layers outside the estimate: the matcher and the durable cache.
	c.time("match.match", func() error {
		for _, src := range scn.Sources {
			counts["match.correspondences"] += float64(len(match.NewMatcher().Match(src.DB, scn.Target).All))
		}
		return nil
	})
	var hash string
	if err := c.time("persist.scenario_hash", func() (err error) { hash, err = persist.ScenarioHash(scn); return }); err != nil {
		return err
	}
	key := persist.ResultKey(hash, q, p.fp, profile.ModeExact)
	c.time("persist.put", func() error { p.cache.Put("results", key, data); return nil })
	var gets samples
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		got, ok := p.cache.Get("results", key)
		gets = append(gets, time.Since(t0).Seconds())
		if !ok {
			return fmt.Errorf("persist: entry %s missing right after Put", key)
		}
		verify(t, got, data)
	}
	c.ms["persist.get_us"] += gets.median() * 1e6
	return nil
}

func matched(nm csg.NodeMatch, id string) bool {
	_, ok := nm[id]
	return ok
}

// generated reports whether a target column is a key, unique or foreign
// key column, which the value-fit detector skips.
func generated(s *relational.Schema, table, column string) bool {
	if s.Unique(table, column) {
		return true
	}
	if pk, ok := s.PrimaryKeyOf(table); ok {
		for _, c := range pk.Columns {
			if c == column {
				return true
			}
		}
	}
	for _, fk := range s.ForeignKeysOf(table) {
		for _, c := range fk.Columns {
			if c == column {
				return true
			}
		}
	}
	return false
}

// report writes the breakdown's per-layer metrics: medians over rounds.
func (p *probe) report(rep *report, enforceSum bool, t *tally) {
	med := func(k string) float64 {
		var s samples
		for _, r := range p.rounds {
			s = append(s, r[k])
		}
		return s.median()
	}
	ms := func(name, key string) { rep.set(name, med(key), "ms") }
	ms("relational.load_ms", "relational.load")
	ms("relational.vectorize_ms", "relational.vectorize")
	rep.set("relational.rows_loaded", p.counts["relational.rows_loaded"], "count")
	ms("profile.busy_ms", "profile.busy")
	ms("csg.schema_graph_ms", "csg.schema_graph")
	ms("csg.path_search_ms", "csg.path_search")
	ms("csg.intern_ms", "csg.intern")
	rep.set("csg.elements_interned", p.counts["csg.elements_interned"], "count")
	ms("structure.detect_self_ms", "structure.detect_self")
	rep.set("structure.conflicts", p.counts["structure.conflicts"], "count")
	ms("structure.plan_ms", "structure.plan")
	ms("valuefit.detect_self_ms", "valuefit.detect_self")
	rep.set("valuefit.pairs_checked", p.counts["valuefit.pairs_checked"], "count")
	ms("valuefit.plan_ms", "valuefit.plan")
	ms("mapping.detect_ms", "mapping.detect")
	ms("mapping.plan_ms", "mapping.plan")
	ms("effort.price_ms", "effort.price")
	rep.set("effort.tasks", p.counts["effort.tasks"], "count")
	ms("core.estimate_ms", "core.estimate")
	ms("core.orchestration_ms", "core.orchestration")
	ms("core.export_ms", "core.export")
	rep.set("core.alloc_mb", med("core.alloc_mb"), "MB")
	ms("match.match_ms", "match.match")
	rep.set("match.correspondences", p.counts["match.correspondences"], "count")
	rep.set("persist.get_us", med("persist.get_us"), "us")
	ms("persist.put_ms", "persist.put")
	ms("persist.scenario_hash_ms", "persist.scenario_hash")

	ratio := med("stage_sum_ratio")
	rep.set("trace.stage_sum_ratio", ratio, "ratio")
	rep.notes["trace.stage_sum_ratio"] = fmt.Sprintf("decomposed stages / untraced 1-worker load+estimate+export; tolerance ±%.0f%%", stageSumTolerance*100)
	rep.set("trace.overhead_pct", med("overhead_pct"), "%")
	rep.notes["trace.overhead_pct"] = fmt.Sprintf("traced vs untraced 1-worker iteration, %d rounds", len(p.rounds))
	if enforceSum {
		t.attempted++
		if math.Abs(ratio-1) > stageSumTolerance {
			t.failed++
		}
	}
}

// counters reports the breakdown's own profiler and cache counters, for a
// workload that has no daemon to report them.
func (p *probe) counters(rep *report) {
	rep.set("profile.computes", p.counts["profile.computes"], "count")
	rep.set("profile.memo_hits", p.counts["profile.memo_hits"], "count")
	rep.set("profile.disk_hits", p.counts["profile.disk_hits"], "count")
	rep.set("profile.hit_ratio", ratioOf(p.counts["profile.memo_hits"]+p.counts["profile.disk_hits"], p.counts["profile.lookups"]), "ratio")
	persistCounts(rep, p.cache.Stats())
}

func persistCounts(rep *report, st persist.Stats) {
	rep.set("persist.hits", float64(st.Hits), "count")
	rep.set("persist.misses", float64(st.Misses), "count")
	rep.set("persist.hit_ratio", ratioOf(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio")
	rep.set("persist.evictions", float64(st.Evictions), "count")
	rep.set("persist.bytes", float64(st.Bytes), "bytes")
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
