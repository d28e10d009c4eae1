// Package efesd implements the estimation daemon: an HTTP/JSON service
// that serves concurrent, multi-tenant estimation requests over uploaded
// scenarios, backed by the shared in-process profiler memo and an
// optional durable persist.Cache (profile statistics and non-degraded
// results survive restarts and are served byte-identically warm).
//
// The request lifecycle is hardened end to end: admission control sheds
// load with a fast 429 when the bounded in-flight budget is exhausted
// (503 while draining), every request runs under a deadline, a
// per-request resilience policy maps onto core.Resilience (retries,
// per-module timeouts, best-effort degradation), an expired overall
// deadline degrades to the baseline fallback estimate instead of a 500,
// and panics are isolated per request by a recovery middleware.
//
// The package deliberately contains no `go` statements and reads no wall
// clock: concurrency comes from net/http's per-connection goroutines and
// the framework's worker pool, and all cache recency is logical — both
// properties are enforced by the in-tree efeslint rules (goleak,
// nonewtime).
package efesd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"efes/internal/baseline"
	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// DefaultMaxInFlight bounds concurrently admitted requests when
// Config.MaxInFlight is zero.
const DefaultMaxInFlight = 32

// DefaultMaxUploadBytes bounds a scenario upload body when
// Config.MaxUploadBytes is zero. The paper-scale running example uploads
// in about 10 MB.
const DefaultMaxUploadBytes = 256 << 20

// maxRequestBytes bounds the estimate, profile and match bodies, which
// name a scenario and a few options.
const maxRequestBytes = 1 << 20

// Config configures a Server. The zero value is usable: default effort
// configuration, one detector worker, a best-effort resilience policy,
// no durable cache.
type Config struct {
	// Cache is the durable store for profile statistics and
	// non-degraded results; nil serves from memory only.
	Cache *persist.Cache
	// Workers is the detector/profiler concurrency per request.
	Workers int
	// MaxInFlight bounds concurrently admitted requests; excess
	// requests are shed with 429. 0 selects DefaultMaxInFlight.
	MaxInFlight int
	// MaxUploadBytes bounds a scenario upload body; a larger one is
	// refused with 413. 0 selects DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// RequestTimeout is the default overall deadline for estimate
	// requests that do not set timeoutMs; 0 means no default deadline.
	RequestTimeout time.Duration
	// Resilience is the default policy for estimate requests; request
	// fields override individual settings.
	Resilience Resilience
	// Effort is the calculator configuration; a zero Functions table
	// selects effort.DefaultConfig.
	Effort effort.Config
	// MaxScenarios bounds resident uploaded scenarios per server; an
	// upload beyond it evicts the least recently used scenario. 0
	// selects DefaultMaxScenarios; negative disables the cap.
	MaxScenarios int
	// ScenarioTTL expires scenarios idle longer than this, lazily on
	// the next lookup or listing; 0 disables. TTL accounting needs the
	// injected clock: with a nil Now it is off regardless.
	ScenarioTTL time.Duration
	// Now is the clock for scenario TTL accounting. The package itself
	// reads no wall clock (enforced by the nonewtime rule); the binary
	// injects time.Now. nil disables TTL expiry.
	Now func() time.Time
}

// Resilience is the server's default request policy in daemon terms.
type Resilience struct {
	// ModuleTimeout bounds one detector attempt.
	ModuleTimeout time.Duration
	// Retries is how often a failed detector attempt is retried.
	Retries int
	// Backoff is the wait before the first retry (doubling).
	Backoff time.Duration
	// FailFast disables best-effort degradation. The daemon defaults to
	// best-effort (the zero value): a service that owes its client an
	// answer degrades onto the baseline instead of failing the request.
	FailFast bool
}

// scenarioEntry is one uploaded scenario with its content address, its
// result memo and recency bookkeeping (see evict.go).
type scenarioEntry struct {
	scn  *core.Scenario
	hash string // persist.ScenarioHash at upload time

	// results is the memo tier of the result cache, one slot per
	// effort.Quality: the bytes a successful persist.Cache.Get last
	// returned for that quality, so a repeat estimate is served without
	// reading the disk again. The slots live and die with the entry.
	results [2]atomic.Pointer[memoResult]

	// seq is the logical recency (larger = more recently used); it
	// orders LRU eviction without consulting a clock.
	seq int64 //efes:guardedby mu — Server.mu
	// lastUsed is the injected-clock time of the last touch; zero when
	// the server has no clock (TTL then never expires anything).
	lastUsed time.Time //efes:guardedby mu — Server.mu
}

// memoResult is one result memo slot's content: the bytes persist.Cache.Get
// returned, footer and checksum verified, under the result key it read.
//
//efes:cache-entry
type memoResult struct {
	key  string
	data []byte
}

// Server is the estimation daemon. It implements http.Handler; all
// state is safe for concurrent use.
//
//efes:daemon-lifetime
type Server struct {
	cfg   Config
	fw    *core.Framework
	prof  *profile.Profiler
	cache *persist.Cache
	// cfgPrint is the effort-config fingerprint baked into result keys.
	cfgPrint string
	mux      *http.ServeMux
	sem      chan struct{}
	draining atomic.Bool

	mu        sync.Mutex
	scenarios map[string]*scenarioEntry //efes:guardedby mu — tenant + "\x00" + name; LRU/TTL-bounded, see evict.go
	scnSeq    int64                     //efes:guardedby mu — logical recency counter

	// Request-lifecycle counters (see /v1/status).
	inflight     atomic.Int64
	admitted     atomic.Int64
	shed         atomic.Int64
	tooLarge     atomic.Int64 // request bodies refused with 413
	panics       atomic.Int64
	resultHits   atomic.Int64
	resultMisses atomic.Int64
	degraded     atomic.Int64
	fallbacks    atomic.Int64
	evictedLRU   atomic.Int64
	evictedTTL   atomic.Int64

	// resultMemoHits counts the resultHits served from a scenario's
	// memo slot rather than read from the disk cache.
	resultMemoHits atomic.Int64

	// profileExact counts the /v1/profile requests served.
	profileExact atomic.Int64
}

// New assembles a Server: one shared framework (standard modules, the
// attribute-counting baseline as fallback) over one shared profiler,
// wired to the durable cache when one is configured.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxUploadBytes < 1 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.Resilience.Retries < 0 {
		return nil, fmt.Errorf("efesd: retries %d is negative", cfg.Resilience.Retries)
	}
	if len(cfg.Effort.Functions) == 0 {
		cfg.Effort = effort.DefaultConfig()
	}
	fp, err := persist.ConfigFingerprint(cfg.Effort)
	if err != nil {
		return nil, fmt.Errorf("efesd: fingerprint effort config: %w", err)
	}
	prof := profile.NewProfiler(cfg.Workers)
	if cfg.Cache != nil {
		prof.SetStore(cfg.Cache.Namespace("stats"))
	}
	vf := valuefit.New()
	vf.Profiler = prof
	fw := core.New(cfg.Effort.Calculator(), mapping.New(), structure.New(), vf).
		SetWorkers(cfg.Workers).
		SetResilience(cfg.Resilience.policy()).
		SetFallback(baseline.New())
	s := &Server{
		cfg:       cfg,
		fw:        fw,
		prof:      prof,
		cache:     cfg.Cache,
		cfgPrint:  fp,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		scenarios: make(map[string]*scenarioEntry),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/scenarios", s.handleUpload)
	mux.HandleFunc("GET /v1/scenarios", s.handleListScenarios)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/profile", s.handleProfile)
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	s.mux = mux
	return s, nil
}

// policy maps the daemon's default-best-effort knobs onto the
// framework's default-fail-fast Resilience.
func (r Resilience) policy() core.Resilience {
	return core.Resilience{
		ModuleTimeout: r.ModuleTimeout,
		Retries:       r.Retries,
		Backoff:       r.Backoff,
		BestEffort:    !r.FailFast,
	}
}

// StartDrain puts the server into draining mode: new requests are
// refused with 503 while in-flight requests finish. Call it before
// http.Server.Shutdown so load balancers stop routing to the instance.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Profiler returns the shared profiler (tests inspect its counters).
func (s *Server) Profiler() *profile.Profiler { return s.prof }

// ServeHTTP is the hardened request entry: drain refusal, admission
// control, in-flight accounting, and per-request panic isolation wrap
// the route mux. Health and status probes bypass admission so that the
// instance stays observable under full load and during drain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/v1/status" {
		s.protect(w, r)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		writeError(w, http.StatusTooManyRequests, "too many in-flight requests")
		return
	}
	defer func() { <-s.sem }()
	s.admitted.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.protect(w, r)
}

// protect runs the mux under per-request panic isolation: a panicking
// handler produces a 500 for its own request and nothing else — the
// connection goroutine survives and the next request is served normally.
func (s *Server) protect(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			// If the handler already wrote a response this write fails
			// silently; the request was doomed either way.
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", v))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// tenant scopes scenario names: uploads and lookups with the same
// X-Efes-Tenant header see each other, others do not. The durable caches
// are content-addressed and therefore deliberately shared across tenants
// — identical data yields identical profiles and results.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Efes-Tenant"); t != "" {
		return t
	}
	return "default"
}

// lookup resolves a scenario name within the request's tenant. A hit
// touches the entry's recency; a TTL-expired entry is evicted on the
// spot and reported as a miss (the client re-uploads).
func (s *Server) lookup(r *http.Request, name string) (*scenarioEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := tenant(r) + "\x00" + name
	e, ok := s.scenarios[key]
	if !ok {
		return nil, false
	}
	if s.expiredLocked(e) {
		s.dropLocked(key)
		s.evictedTTL.Add(1)
		return nil, false
	}
	s.touchLocked(e)
	return e, true
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encode response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
// The body is one JSON value: anything but whitespace after it is
// malformed. On failure it writes the response itself, 413 for an
// oversized body and 400 for a malformed one, and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(v)
	if err == nil {
		switch _, err = dec.Token(); err {
		case io.EOF:
			return true
		case nil:
			err = errors.New("data after the request object")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.tooLarge.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
	return false
}

// writeError writes a JSON error body ({"error": ...}).
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(data, '\n'))
}
