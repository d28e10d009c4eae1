package main

// The efesd workloads: an efesd.Server with a durable cache, served over
// loopback HTTP, driven by closed-loop clients.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"efes/internal/efesd"
	"efes/internal/persist"
)

// clients is the number of closed-loop client goroutines and keep-alive
// connections: one per core of the reference machine.
const clients = 2

// spanHeader carries "id/parentSpan" from a traced client request to the
// timing handler wrapped around the server.
const spanHeader = "X-Perfbench-Span"

// daemon is one efesd.Server with its cache, listener and client.
type daemon struct {
	cache  *persist.Cache
	hs     *http.Server
	base   string
	client *http.Client

	wg       sync.WaitGroup // the serve loop
	serveErr error          // what Serve returned; read after wg.Wait
}

// startDaemon opens a durable cache in dir and serves efesd with the
// cmd/efesd defaults on a loopback port. rec, when non-nil, receives a
// server-side span per request.
func startDaemon(dir string, maxScenarios int, rec *recorder) (*daemon, error) {
	cache, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := efesd.New(efesd.Config{
		Cache:          cache,
		Workers:        1,
		MaxInFlight:    efesd.DefaultMaxInFlight,
		RequestTimeout: 30 * time.Second,
		MaxScenarios:   maxScenarios,
		Now:            time.Now,
	})
	if err != nil {
		cache.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cache.Close()
		return nil, err
	}
	var h http.Handler = srv
	if rec != nil {
		h = timingHandler(srv, rec)
	}
	d := &daemon{
		cache: cache,
		hs:    &http.Server{Handler: h},
		base:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.serveErr = d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the server, waits for its serve loop, and releases the
// cache.
func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.wg.Wait()
	if !errors.Is(d.serveErr, http.ErrServerClosed) && err == nil {
		err = d.serveErr
	}
	if cerr := d.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// timingHandler records the server-side time of every traced request as
// a child of the client span named in spanHeader.
func timingHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(spanHeader)
		if v == "" {
			next.ServeHTTP(w, r)
			return
		}
		a, b, _ := strings.Cut(v, "/")
		id, _ := strconv.ParseInt(a, 10, 64)
		parent, _ := strconv.Atoi(b)
		i := rec.start(id, "efesd.serve_"+routeName(r.URL.Path), parent)
		next.ServeHTTP(w, r)
		rec.end(i)
	})
}

func routeName(path string) string {
	switch path {
	case "/v1/scenarios":
		return "upload"
	default:
		return strings.TrimPrefix(path, "/v1/")
	}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	tier   string // X-Efes-Cache
	body   []byte
	secs   float64
}

// post sends one request and reads the whole reply. With a recorder the
// round trip is a client span that the server span nests under.
func (d *daemon) post(rec *recorder, id int64, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	si := rec.start(id, "client."+routeName(path), -1)
	if si >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", id, si))
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		rec.end(si)
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	secs := time.Since(t0).Seconds()
	rec.end(si)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, tier: resp.Header.Get("X-Efes-Cache"), body: data, secs: secs}, nil
}

// status is the subset of GET /v1/status the benchmark checks.
type status struct {
	Shed, Panics, Degraded     int64
	ResultHits, ResultMisses   int64
	ScenariosEvictedLRU        int64
	ProfileHits, ProfileMisses int64
	ProfileDiskHits            int64
	ProfileComputes            int64
	Cache                      *persist.Stats
}

func (d *daemon) status() (status, error) {
	resp, err := d.client.Get(d.base + "/v1/status")
	if err != nil {
		return status{}, err
	}
	defer resp.Body.Close()
	var st status
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if st.Cache == nil {
		return st, errors.New("status: no cache counters")
	}
	return st, nil
}

// plus returns the counters of s plus sign times those of o. The cache's
// resident Bytes are taken from o when adding and kept when subtracting,
// so both sums and deltas end with the latest reading.
func (s status) plus(o status, sign int64) status {
	var c persist.Stats
	if s.Cache != nil {
		c = *s.Cache
	}
	c.Hits += sign * o.Cache.Hits
	c.Misses += sign * o.Cache.Misses
	c.Evictions += sign * o.Cache.Evictions
	if sign > 0 {
		c.Bytes = o.Cache.Bytes
	}
	return status{
		Shed: s.Shed + sign*o.Shed, Panics: s.Panics + sign*o.Panics, Degraded: s.Degraded + sign*o.Degraded,
		ResultHits: s.ResultHits + sign*o.ResultHits, ResultMisses: s.ResultMisses + sign*o.ResultMisses,
		ScenariosEvictedLRU: s.ScenariosEvictedLRU + sign*o.ScenariosEvictedLRU,
		ProfileHits:         s.ProfileHits + sign*o.ProfileHits, ProfileMisses: s.ProfileMisses + sign*o.ProfileMisses,
		ProfileDiskHits: s.ProfileDiskHits + sign*o.ProfileDiskHits, ProfileComputes: s.ProfileComputes + sign*o.ProfileComputes,
		Cache: &c,
	}
}

// check classifies a reply against what the workload expects and adds it
// to t: wantTier "" accepts any tier; want nil accepts any body.
func check(t *tally, r reply, err error, wantStatus int, wantTier string, want []byte) bool {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
		t.shed++
	case r.status != wantStatus:
		t.failed++
	case wantTier != "" && r.tier != wantTier:
		t.wrongTier++
	case want != nil && !bytes.Equal(r.body, want):
		t.wrongByte++
	default:
		return true
	}
	return false
}

func estimateBody(name, quality string) []byte {
	return []byte(fmt.Sprintf(`{"scenario":%q,"quality":%q}`, name, quality))
}

// phase is one measured stretch of traffic.
type phase struct {
	st    routeStats
	proc  procDelta
	peak  float64 // MB
	delta status
}

// measure runs traffic against d for secs, recording process counters,
// the peak heap and the /v1/status deltas around it. What each client saw
// is merged after the measured stretch, so the merge's copies are not
// part of it.
func measure(d *daemon, secs float64, traffic func(deadline time.Time) []routeStats) (phase, error) {
	var ph phase
	before, err := d.status()
	if err != nil {
		return ph, err
	}
	heap := startHeapSampler()
	p0 := snapProc()
	per := traffic(time.Now().Add(time.Duration(secs * float64(time.Second))))
	ph.proc = p0.to(snapProc())
	ph.peak = heap.stopMB()
	for _, s := range per {
		ph.st.merge(s)
	}
	after, err := d.status()
	if err != nil {
		return ph, err
	}
	ph.delta = after.plus(before, -1)
	return ph, nil
}

// add accumulates another phase of the same run into p.
func (p *phase) add(o phase) {
	p.st.merge(o.st)
	p.proc.wall += o.proc.wall
	p.proc.cpu += o.proc.cpu
	p.proc.gcs += o.proc.gcs
	p.proc.pauseMs += o.proc.pauseMs
	p.peak = max(p.peak, o.peak)
	p.delta = p.delta.plus(o.delta, 1)
}

// daemonReport sets the throughput, CPU and heap metrics of an untraced
// daemon run; op holds the latencies of the workload's unit of work and
// ops counts the units completed.
func daemonReport(rep *report, ph phase, t tally, op samples, ops int) {
	n := float64(ph.st.requests())
	rep.set("requests_per_s", n/ph.proc.wall, "1/s")
	rep.set("cpu_ms_per_request", ph.proc.cpu/n*1e3, "ms")
	rep.set("error_rate", t.errorRate(), "ratio")
	rep.set("peak_heap_mb", ph.peak, "MB")
	rep.set("op_p50_ms", op.median()*1e3, "ms")
	rep.set("ops_per_s", float64(ops)/ph.proc.wall, "1/s")
	rep.set("cpu_ms_per_op", ph.proc.cpu/float64(ops)*1e3, "ms")
}

// daemonTraced is the traced run of a daemon workload: half the time
// untraced and half traced traffic (their throughput ratio is the
// tracing overhead), then the per-layer breakdown on the workload's
// scenarios.
func daemonTraced(e *env, rep *report, t tally, inputs []probeInput, run func(*recorder, float64) (phase, error)) (*report, tally, error) {
	plain, err := run(nil, e.seconds/2)
	if err != nil {
		return nil, t, err
	}
	t.add(plain.st.t)
	ph, err := run(e.rec, e.seconds/2)
	if err != nil {
		return nil, t, err
	}
	t.add(ph.st.t)

	spans := e.rec.snapshot()
	self := selfTimes(spans)
	serve := map[string]samples{}
	var transport samples
	for i, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "efesd.serve_"):
			serve[s.Name] = append(serve[s.Name], s.dur())
		case strings.HasPrefix(s.Name, "client."):
			transport = append(transport, self[i])
		}
	}
	for _, r := range []string{"upload", "estimate", "profile", "match"} {
		n := "efesd.serve_" + r
		rep.set(n+"_ms", serve[n].median(), "ms")
		rep.notes[n+"_ms"] = fmt.Sprintf("n=%d", len(serve[n]))
	}
	rep.set("efesd.transport_ms", transport.median(), "ms")
	rep.notes["efesd.transport_ms"] = fmt.Sprintf("round trip minus server time, n=%d", len(transport))
	plainRate := float64(plain.st.requests()) / plain.proc.wall
	tracedRate := float64(ph.st.requests()) / ph.proc.wall
	dl := ph.delta
	rep.set("efesd.shed", float64(dl.Shed), "count")
	rep.set("efesd.result_hits", float64(dl.ResultHits), "count")
	rep.set("efesd.result_misses", float64(dl.ResultMisses), "count")
	rep.set("efesd.scenarios_evicted", float64(dl.ScenariosEvictedLRU), "count")
	rep.set("profile.computes", float64(dl.ProfileComputes), "count")
	rep.set("profile.memo_hits", float64(dl.ProfileHits), "count")
	rep.set("profile.disk_hits", float64(dl.ProfileDiskHits), "count")
	rep.set("profile.hit_ratio", ratioOf(float64(dl.ProfileHits+dl.ProfileDiskHits), float64(dl.ProfileHits+dl.ProfileMisses)), "ratio")
	persistCounts(rep, *dl.Cache)
	processMetrics(rep, ph.proc)

	p, err := newProbe(e.rec, inputs, e.work)
	if err != nil {
		return nil, t, err
	}
	defer p.close()
	if err := p.run(time.Now().Add(time.Duration(e.seconds/2*float64(time.Second))), &t); err != nil {
		return nil, t, err
	}
	p.report(rep, false, &t)
	// The daemon's own tracing overhead replaces the in-process one.
	rep.set("trace.overhead_pct", (plainRate/tracedRate-1)*100, "%")
	rep.notes["trace.overhead_pct"] = "untraced vs traced request throughput"
	return rep, t, nil
}
