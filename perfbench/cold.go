package main

// paper-cold: the running example at published scale, estimated the way
// `efes -json` does with no cache.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// paperScenarioName is what cmd/efes names a scenario loaded from
// source/ and target/ directories.
const paperScenarioName = "source-to-target"

func runPaperCold(e *env) (*report, tally, error) {
	rep, t := newReport(), tally{}
	dir := filepath.Join(e.work, "paper")
	var scn *core.Scenario
	setup, err := repeatSetup(func() error {
		cfg := scenario.PaperExampleConfig()
		cfg.Seed = e.seed
		scn = scenario.MusicExample(cfg)
		scn.Name = paperScenarioName
		return writeScenarioDir(dir, scn)
	})
	if err != nil {
		return nil, t, err
	}
	ref, res, err := referenceJSON(scn, effort.HighQuality)
	if err != nil {
		return nil, t, err
	}
	t.attempted++
	if err := checkPaperCounts(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		t.failed++
	}
	scn, res = nil, nil
	runtime.GC()
	load := func() (*core.Scenario, error) { return loadScenarioDir(dir) }

	if e.rec != nil {
		p, err := newProbe(e.rec, []probeInput{{load: load, ref: ref}}, e.work)
		if err != nil {
			return nil, t, err
		}
		defer p.close()
		before := snapProc()
		if err := p.run(e.deadline(), &t); err != nil {
			return nil, t, err
		}
		processMetrics(rep, before.to(snapProc()))
		p.report(rep, true, &t)
		p.counters(rep)
		daemonCountsAbsent(rep)
		return rep, t, nil
	}

	// One untimed iteration lets the page cache and lazy runtime set-up
	// settle; it is verified like the others.
	workers := runtime.GOMAXPROCS(0)
	iterate := func() ([]byte, error) {
		scn, err := load()
		if err != nil {
			return nil, err
		}
		res, err := newFramework(workers).EstimateContext(context.Background(), scn, effort.HighQuality)
		if err != nil {
			return nil, err
		}
		data, err := res.JSON()
		return append(data, '\n'), err
	}
	data, err := iterate()
	if err != nil {
		return nil, t, err
	}
	verify(&t, data, ref)

	// Every iteration starts from a collected heap, as each `efes` run
	// starts in a fresh process; the collection is not timed.
	var lat samples
	var wall, cpu float64
	heap := startHeapSampler()
	deadline := e.deadline()
	for len(lat) < 3 || time.Now().Before(deadline) {
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		data, err := iterate()
		secs := time.Since(t0).Seconds()
		wall, cpu = wall+secs, cpu+cpuSeconds()-c0
		if err != nil {
			t.attempted++
			t.failed++
			continue
		}
		verify(&t, data, ref)
		lat = append(lat, secs)
	}
	peak := heap.stopMB()

	rep.set("setup_s", setup, "s")
	rep.set("batch_estimate_p50_s", lat.median(), "s")
	rep.notes["batch_estimate_p50_s"] = fmt.Sprintf("n=%d, workers=%d", len(lat), workers)
	rep.set("batch_cpu_s_per_estimate", cpu/float64(len(lat)), "s")
	rep.set("error_rate", t.errorRate(), "ratio")
	rep.set("peak_heap_mb", peak, "MB")
	rep.set("op_p50_ms", lat.median()*1e3, "ms")
	rep.set("ops_per_s", float64(len(lat))/wall, "1/s")
	rep.set("cpu_ms_per_op", cpu/float64(len(lat))*1e3, "ms")
	return rep, t, nil
}

// checkPaperCounts pins the paper's published numbers: Table 3 (503 =
// 102 + 401 violations of κ(records→artist)=1, 102 of κ(artist→records)),
// Table 6 (274,523 song lengths, 260,923 distinct) and the 66,875-minute
// high-quality total.
func checkPaperCounts(res *core.Result) error {
	var sr *structure.Report
	var vr *valuefit.Report
	for _, r := range res.Reports {
		switch r := r.(type) {
		case *structure.Report:
			sr = r
		case *valuefit.Report:
			vr = r
		}
	}
	if sr == nil || vr == nil {
		return fmt.Errorf("paper example: missing structure or value-fit report")
	}
	viol := map[string]int{}
	for _, c := range sr.Checks {
		viol[c.TargetRel] = c.Violations
	}
	if viol["records -> artist"] != 503 || viol["artist -> records"] != 102 {
		return fmt.Errorf("paper example: Table 3 violations %v, want 503 and 102", viol)
	}
	found := false
	for _, h := range vr.Heterogeneities {
		if h.SourceAttr.Table == "songs" && h.SourceAttr.Column == "length" {
			found = h.SourceValues == 274523 && h.SourceDistinct == 260923
		}
	}
	if !found {
		return fmt.Errorf("paper example: Table 6 songs.length counts differ from 274,523 / 260,923")
	}
	if got := math.Round(res.TotalMinutes()); got != 66875 {
		return fmt.Errorf("paper example: total %.0f min, want 66,875", got)
	}
	return nil
}
