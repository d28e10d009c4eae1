package main

// daemon-churn: uploads beside reads on one efesd. Every cycle uploads a
// scenario no earlier request of the run has seen, estimates it cold at
// both qualities, matches it, and re-estimates it warm.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
)

// churnMaxScenarios is the efesd scenario cap of daemon-churn: low enough
// that LRU eviction runs every cycle once the store is full, high enough
// that a client's current scenario is never the least recently used.
const churnMaxScenarios = 8

// churnCyclesPerSecond sizes the pool of fresh scenarios to the run: no
// run on the reference machine completes more cycles per second, so no
// upload repeats. A faster machine drains the pool early and the phase
// ends there.
const churnCyclesPerSecond = 40

// churnEpoch is how many cycles one efesd process serves before the
// benchmark restarts it over the same cache directory, outside the
// measured time. efesd's heap grows with every upload (its profiler memo
// keeps each uploaded database alive), so an unbroken run of a few
// hundred cycles would need gigabytes; the epoch bounds the heap while
// peak_heap_mb still shows the growth within one.
const churnEpoch = 100

// maxPool keeps generator seeds of one pool less than the generators'
// 1000 target offset apart, so no source instance equals a target one.
const maxPool = 1000

// churnItem is one pool entry and what the run observed for it.
type churnItem struct {
	name, source string
	body         []byte
	miss         [2][]byte // high, low
	match        []byte
	done         bool
}

type churnState struct {
	dir  string // cache directory, kept across restarts
	rec  *recorder
	d    *daemon
	pool []*churnItem
	next atomic.Int64
}

// churnPool generates n scenarios: the eight evaluation pairs in turn at
// consecutive generator seeds, so that no two share their data (the
// generators offset target seeds by 1000, beyond any pool).
func churnPool(seed int64, n int) ([]*churnItem, error) {
	pool := make([]*churnItem, n)
	seen := map[[32]byte]bool{}
	const unnamed = `{"name":""`
	for i := range pool {
		scn, err := evalScenario(evalPairs[i%len(evalPairs)], seed+int64(i))
		if err != nil {
			return nil, err
		}
		data, err := renderUpload("", scn)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		if seen[sum] {
			return nil, fmt.Errorf("pool entry %d repeats the data of an earlier one", i)
		}
		seen[sum] = true
		name := fmt.Sprintf("%s-%04d", scn.Name, i)
		body := append([]byte(`{"name":`+strconv.Quote(name)), data[len(unnamed):]...)
		pool[i] = &churnItem{name: name, source: scn.Sources[0].Name, body: body}
	}
	return pool, nil
}

// cycle runs one upload-estimate-match-reestimate cycle on item.
func (s *churnState) cycle(rec *recorder, id int64, it *churnItem, st *routeStats) {
	add := func(route string, r reply) { st.lat[route] = append(st.lat[route], r.secs) }
	start := time.Now()
	defer func() {
		if it.done {
			st.lat["cycle"] = append(st.lat["cycle"], time.Since(start).Seconds())
		}
	}()
	r, err := s.d.post(rec, id, "/v1/scenarios", it.body)
	if !check(&st.t, r, err, 201, "", nil) {
		return
	}
	add("upload", r)
	// The first miss profiles the new data and persists each profile; the
	// second reuses those profiles. Their latencies differ by a factor, so
	// they are kept apart: a median over both would fall between them.
	for q, route := range [2]string{"estimate_cold", "estimate_cold_low"} {
		r, err := s.d.post(rec, id, "/v1/estimate", estimateBody(it.name, qualities[q]))
		if !check(&st.t, r, err, 200, "miss", nil) {
			return
		}
		add(route, r)
		it.miss[q] = r.body
	}
	body, _ := json.Marshal(map[string]string{"scenario": it.name, "source": it.source})
	r, err = s.d.post(rec, id, "/v1/match", body)
	if !check(&st.t, r, err, 200, "", nil) {
		return
	}
	add("match", r)
	it.match = r.body
	r, err = s.d.post(rec, id, "/v1/estimate", estimateBody(it.name, "high"))
	if !check(&st.t, r, err, 200, "hit", it.miss[0]) {
		return
	}
	add("estimate_warm", r)
	it.done = true
}

// claim hands out the next pool index below limit.
func (s *churnState) claim(limit int64) (int64, bool) {
	for {
		i := s.next.Load()
		if i >= limit {
			return 0, false
		}
		if s.next.CompareAndSwap(i, i+1) {
			return i, true
		}
	}
}

// epoch runs cycles on the current daemon until the deadline or until
// churnEpoch cycles have been handed out.
func (s *churnState) epoch(rec *recorder, deadline time.Time) []routeStats {
	limit := min(s.next.Load()+churnEpoch, int64(len(s.pool)))
	return drive(func(c int) routeStats {
		st := routeStats{lat: map[string]samples{}}
		for time.Now().Before(deadline) {
			i, ok := s.claim(limit)
			if !ok {
				break
			}
			s.cycle(rec, i, s.pool[i], &st)
		}
		return st
	})
}

// run measures epochs until secs of traffic have passed or the pool is
// drained, restarting efesd between epochs, and checks each epoch's
// /v1/status deltas.
func (s *churnState) run(rec *recorder, secs float64) (phase, error) {
	var total phase
	for left := secs; left > 0 && s.next.Load() < int64(len(s.pool)); {
		if total.proc.wall > 0 {
			if err := s.restart(); err != nil {
				return total, err
			}
		}
		ph, err := measure(s.d, left, func(deadline time.Time) []routeStats { return s.epoch(rec, deadline) })
		if err != nil {
			return total, err
		}
		checkStatus(&ph.st.t, ph.delta, len(ph.st.lat["estimate_warm"]),
			len(ph.st.lat["estimate_cold"])+len(ph.st.lat["estimate_cold_low"]))
		total.add(ph)
		left -= ph.proc.wall
	}
	return total, nil
}

func (s *churnState) restart() error {
	if err := s.d.close(); err != nil {
		return err
	}
	d, err := startDaemon(s.dir, churnMaxScenarios, s.rec)
	s.d = d
	return err
}

// verifyCycles checks every completed cycle's answers against the
// in-process framework and matcher, on one goroutine per client.
func verifyCycles(pool []*churnItem, t *tally) error {
	var wg sync.WaitGroup
	tallies := make([]tally, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(pool) && errs[c] == nil; i += clients {
				if pool[i].done {
					errs[c] = verifyCycle(pool[i], &tallies[c])
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		t.add(tallies[c])
		if errs[c] != nil {
			return errs[c]
		}
	}
	return nil
}

func verifyCycle(it *churnItem, t *tally) error {
	scn, err := parseUpload(it.body)
	if err != nil {
		return err
	}
	for q, quality := range qualityLevels {
		want, _, err := referenceJSON(scn, quality)
		if err != nil {
			return err
		}
		verify(t, it.miss[q], want)
	}
	return verifyMatch(t, it.match, scn)
}

func runDaemonChurn(e *env) (*report, tally, error) {
	rep, t := newReport(), tally{}
	s := &churnState{rec: e.rec}
	n := 0
	size := min(int(e.seconds*churnCyclesPerSecond)+churnEpoch, maxPool)
	setup, err := repeatSetup(func() error {
		if s.d != nil {
			if err := s.d.close(); err != nil {
				return err
			}
		}
		n++
		var err error
		if s.pool, err = churnPool(e.seed, size); err != nil {
			return err
		}
		s.dir = filepath.Join(e.work, fmt.Sprintf("cache-%d", n))
		s.d, err = startDaemon(s.dir, churnMaxScenarios, e.rec)
		return err
	})
	if err != nil {
		return nil, t, err
	}
	defer func() { s.d.close() }()

	if e.rec != nil {
		var inputs []probeInput
		for _, it := range s.pool[:len(evalPairs)] {
			body := it.body
			scn, err := parseUpload(body)
			if err != nil {
				return nil, t, err
			}
			ref, _, err := referenceJSON(scn, effort.HighQuality)
			if err != nil {
				return nil, t, err
			}
			inputs = append(inputs, probeInput{load: func() (*core.Scenario, error) { return parseUpload(body) }, ref: ref})
		}
		rep, t, err := daemonTraced(e, rep, t, inputs, s.run)
		if err == nil {
			err = verifyCycles(s.pool, &t)
		}
		return rep, t, err
	}
	ph, err := s.run(nil, e.seconds)
	if err != nil {
		return nil, t, err
	}
	t.add(ph.st.t)
	if err := verifyCycles(s.pool, &t); err != nil {
		return nil, t, err
	}
	rep.set("setup_s", setup, "s")
	rep.latency("estimate_cold", ph.st.lat["estimate_cold"])
	rep.latency("estimate_warm", ph.st.lat["estimate_warm"])
	for _, r := range []string{"estimate_cold_low", "upload", "match"} {
		rep.set(r+"_p50_ms", ph.st.lat[r].median()*1e3, "ms")
		rep.notes[r+"_p50_ms"] = fmt.Sprintf("n=%d", len(ph.st.lat[r]))
	}
	cycles := ph.st.lat["cycle"]
	daemonReport(rep, ph, t, cycles, len(cycles))
	rep.notes["ops_per_s"] = fmt.Sprintf("cycles: %d of %d pooled completed, %d scenarios evicted",
		len(cycles), len(s.pool), ph.delta.ScenariosEvictedLRU)
	return rep, t, nil
}
