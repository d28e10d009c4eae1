package main

// daemon-warm: read traffic against a warm efesd. Every estimate must be
// a result-cache hit and every profile a memo hit.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/persist"
)

// qualities and qualityLevels are the two expected result qualities, on
// the wire and in process.
var (
	qualities     = [2]string{"high", "low"}
	qualityLevels = [2]effort.Quality{effort.HighQuality, effort.LowEffort}
)

// warmState is the set-up daemon-warm measures against.
type warmState struct {
	d        *daemon
	names    []string
	bodies   [][]byte
	miss     [][2][]byte // per scenario: high and low answer from set-up
	profiles []profileReq
}

type profileReq struct {
	body, want []byte
}

// setupWarm starts efesd over a fresh cache, uploads the eight evaluation
// scenarios, estimates each at both qualities and profiles every
// corresponded column once.
func setupWarm(e *env, dir string, rec *recorder) (*warmState, error) {
	s := &warmState{}
	var profiles []map[string]string
	for _, pair := range evalPairs {
		scn, err := evalScenario(pair, e.seed)
		if err != nil {
			return nil, err
		}
		body, err := renderUpload(scn.Name, scn)
		if err != nil {
			return nil, err
		}
		s.names = append(s.names, scn.Name)
		s.bodies = append(s.bodies, body)
		src := scn.Sources[0]
		for _, c := range src.Correspondences.AttributePairs() {
			profiles = append(profiles,
				map[string]string{"scenario": scn.Name, "db": src.Name, "table": c.SourceTable, "column": c.SourceColumn},
				map[string]string{"scenario": scn.Name, "db": "target", "table": c.TargetTable, "column": c.TargetColumn})
		}
	}
	d, err := startDaemon(dir, 0, rec)
	if err != nil {
		return nil, err
	}
	s.d = d
	fail := func(err error) (*warmState, error) {
		d.close()
		return nil, err
	}
	for i, body := range s.bodies {
		r, err := d.post(nil, -1, "/v1/scenarios", body)
		if err := expect(r, err, 201, ""); err != nil {
			return fail(fmt.Errorf("upload %s: %w", s.names[i], err))
		}
		var m [2][]byte
		for q, qn := range qualities {
			r, err := d.post(nil, -1, "/v1/estimate", estimateBody(s.names[i], qn))
			if err := expect(r, err, 200, "miss"); err != nil {
				return fail(fmt.Errorf("estimate %s %s: %w", s.names[i], qn, err))
			}
			m[q] = r.body
		}
		s.miss = append(s.miss, m)
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		body, _ := json.Marshal(p)
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		r, err := d.post(nil, -1, "/v1/profile", body)
		if err := expect(r, err, 200, ""); err != nil {
			return fail(fmt.Errorf("profile %s: %w", body, err))
		}
		s.profiles = append(s.profiles, profileReq{body: body, want: r.body})
	}
	return s, nil
}

// expect turns a set-up reply into an error unless it has the status and
// the cache tier ("" accepts any).
func expect(r reply, err error, code int, tier string) error {
	switch {
	case err != nil:
		return err
	case r.status != code:
		return fmt.Errorf("HTTP %d: %s", r.status, r.body)
	case tier != "" && r.tier != tier:
		return fmt.Errorf("cache tier %q, want %q", r.tier, tier)
	}
	return nil
}

// routeStats is what one client observed.
type routeStats struct {
	t   tally
	lat map[string]samples
}

func (a *routeStats) merge(b routeStats) {
	a.t.add(b.t)
	if a.lat == nil {
		a.lat = map[string]samples{}
	}
	for k, v := range b.lat {
		a.lat[k] = append(a.lat[k], v...)
	}
}

func (a routeStats) requests() int { return a.t.attempted - a.t.bad() }

// drive runs one closed-loop client per goroutine until each returns and
// gives back what each saw.
func drive(client func(c int) routeStats) []routeStats {
	var wg sync.WaitGroup
	per := make([]routeStats, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = client(c)
		}(c)
	}
	wg.Wait()
	return per
}

// maxClientRate bounds the requests per second one client can complete
// over loopback; it sizes the off-heap latency buffers.
const maxClientRate = 100_000

// traffic sends three estimates per profile request from every client
// until the deadline.
func (s *warmState) traffic(e *env, rec *recorder, deadline time.Time) []routeStats {
	return drive(func(c int) routeStats {
		n := int(time.Until(deadline).Seconds()*maxClientRate) + 1
		st := routeStats{lat: map[string]samples{"estimate_warm": e.lat.samples(n), "profile": e.lat.samples(n)}}
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(c)))
		for k := int64(0); time.Now().Before(deadline); k++ {
			id := int64(c)<<40 | k
			if rng.Intn(4) < 3 {
				i, q := rng.Intn(len(s.names)), rng.Intn(2)
				r, err := s.d.post(rec, id, "/v1/estimate", estimateBody(s.names[i], qualities[q]))
				if check(&st.t, r, err, 200, "hit", s.miss[i][q]) {
					st.lat["estimate_warm"] = append(st.lat["estimate_warm"], r.secs)
				}
			} else {
				p := s.profiles[rng.Intn(len(s.profiles))]
				r, err := s.d.post(rec, id, "/v1/profile", p.body)
				if check(&st.t, r, err, 200, "", p.want) {
					st.lat["profile"] = append(st.lat["profile"], r.secs)
				}
			}
		}
		return st
	})
}

// uploadAndMatch gives the traced run server-side times for the upload
// and match routes, which warm traffic does not use: it uploads every
// scenario again under a second name, leaving the warm entries and their
// profiles untouched, and matches it, three times over.
func (s *warmState) uploadAndMatch(rec *recorder, t *tally) error {
	for pass := int64(0); pass < 3; pass++ {
		for i, body := range s.bodies {
			var req uploadRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			req.Name += "-again"
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			scn, err := parseUpload(body)
			if err != nil {
				return err
			}
			hash, err := persist.ScenarioHash(scn)
			if err != nil {
				return err
			}
			id := pass<<32 | int64(i)
			r, err := s.d.post(rec, id, "/v1/scenarios", body)
			var up struct{ Hash string }
			if check(t, r, err, 201, "", nil) && (json.Unmarshal(r.body, &up) != nil || up.Hash != hash) {
				t.wrongByte++
			}
			match, _ := json.Marshal(map[string]string{"scenario": scn.Name, "source": scn.Sources[0].Name})
			r, err = s.d.post(rec, id, "/v1/match", match)
			if check(t, r, err, 200, "", nil) {
				if err := verifyMatch(t, r.body, scn); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkStatus adds the /v1/status invariants to t: no shedding, panics
// or degraded answers, and hit/miss counters equal to the verified
// requests.
func checkStatus(t *tally, delta status, hits, misses int) {
	t.attempted++
	if delta.Shed != 0 || delta.Panics != 0 || delta.Degraded != 0 ||
		delta.ResultHits != int64(hits) || delta.ResultMisses != int64(misses) {
		fmt.Fprintf(os.Stderr, "perfbench: status deltas %+v, want %d hits and %d misses\n", delta, hits, misses)
		t.failed++
	}
}

func runDaemonWarm(e *env) (*report, tally, error) {
	rep, t := newReport(), tally{}
	var s *warmState
	n := 0
	setup, err := repeatSetup(func() error {
		if s != nil {
			if err := s.d.close(); err != nil {
				return err
			}
		}
		n++
		var err error
		s, err = setupWarm(e, filepath.Join(e.work, fmt.Sprintf("cache-%d", n)), e.rec)
		return err
	})
	if err != nil {
		return nil, t, err
	}
	defer s.d.close()

	// The set-up answers are checked against the in-process framework.
	var inputs []probeInput
	for i, body := range s.bodies {
		scn, err := parseUpload(body)
		if err != nil {
			return nil, t, err
		}
		for q, quality := range qualityLevels {
			want, _, err := referenceJSON(scn, quality)
			if err != nil {
				return nil, t, err
			}
			verify(&t, s.miss[i][q], want)
		}
		body := body
		inputs = append(inputs, probeInput{load: func() (*core.Scenario, error) { return parseUpload(body) }, ref: s.miss[i][0]})
	}

	run := func(rec *recorder, secs float64) (phase, error) {
		ph, err := measure(s.d, secs, func(deadline time.Time) []routeStats { return s.traffic(e, rec, deadline) })
		if err != nil {
			return ph, err
		}
		checkStatus(&ph.st.t, ph.delta, len(ph.st.lat["estimate_warm"]), 0)
		ph.st.t.attempted++
		if ph.delta.ProfileHits != int64(len(ph.st.lat["profile"])) || ph.delta.ProfileMisses != 0 {
			ph.st.t.failed++
		}
		return ph, nil
	}
	if e.rec != nil {
		if err := s.uploadAndMatch(e.rec, &t); err != nil {
			return nil, t, err
		}
		return daemonTraced(e, rep, t, inputs, run)
	}
	ph, err := run(nil, e.seconds)
	if err != nil {
		return nil, t, err
	}
	t.add(ph.st.t)
	rep.set("setup_s", setup, "s")
	rep.latency("estimate_warm", ph.st.lat["estimate_warm"])
	rep.set("profile_p50_ms", ph.st.lat["profile"].median()*1e3, "ms")
	rep.notes["profile_p50_ms"] = fmt.Sprintf("n=%d", len(ph.st.lat["profile"]))
	daemonReport(rep, ph, t, ph.st.lat["estimate_warm"], ph.st.requests())
	return rep, t, nil
}
