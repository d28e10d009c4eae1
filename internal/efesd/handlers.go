package efesd

// The daemon's endpoint handlers. Every handler is synchronous (no `go`
// statements — concurrency belongs to net/http and the framework's
// worker pool) and threads the request context into every
// cancellation-aware callee.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
)

// dbSpec is an uploaded database: a schema declaration in the
// relational.ParseSchemaText format plus per-table CSV bodies in the
// relational.ReadCSV format.
type dbSpec struct {
	Schema string            `json:"schema"`
	Tables map[string]string `json:"tables"`
}

// sourceSpec is one uploaded source.
type sourceSpec struct {
	Name string `json:"name"`
	dbSpec
	// Correspondences is the line-oriented match.ParseText format.
	Correspondences string `json:"correspondences,omitempty"`
	// Discover runs the schema matcher instead of (or in addition to)
	// explicit correspondences.
	Discover bool `json:"discover,omitempty"`
}

// uploadRequest is the POST /v1/scenarios body.
type uploadRequest struct {
	Name    string       `json:"name"`
	Target  dbSpec       `json:"target"`
	Sources []sourceSpec `json:"sources"`
}

// uploadResponse echoes the registered scenario.
type uploadResponse struct {
	Name string `json:"name"`
	// Hash is the scenario's content address: the same data uploaded to
	// any efes process derives the same hash, which is what lets the
	// durable result cache serve warm answers across restarts.
	Hash    string `json:"hash"`
	Sources int    `json:"sources"`
	// Correspondences counts all correspondences over all sources.
	Correspondences int `json:"correspondences"`
}

// loadDB materializes an uploaded database. Tables load in sorted name
// order — the map iteration order must not leak anywhere.
func loadDB(spec dbSpec) (*relational.Database, error) {
	schema, err := relational.ParseSchemaText(spec.Schema)
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	names := make([]string, 0, len(spec.Tables))
	for name := range spec.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := db.ReadCSV(name, strings.NewReader(spec.Tables[name])); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req uploadRequest
	if !s.decodeBody(w, r, s.cfg.MaxUploadBytes, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "scenario name is required")
		return
	}
	target, err := loadDB(req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("target: %v", err))
		return
	}
	scn := &core.Scenario{Name: req.Name, Target: target}
	corrCount := 0
	for _, src := range req.Sources {
		if namesTarget(src.Name) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("source %q: the name addresses the target", src.Name))
			return
		}
		db, err := loadDB(src.dbSpec)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("source %s: %v", src.Name, err))
			return
		}
		corrs := &match.Set{}
		if src.Correspondences != "" {
			corrs, err = match.ParseText(strings.NewReader(src.Correspondences))
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("source %s: %v", src.Name, err))
				return
			}
		}
		if src.Discover {
			corrs.All = addDiscovered(corrs.All, match.NewMatcher().Match(db, target).All)
		}
		scn.Sources = append(scn.Sources, &core.Source{Name: src.Name, DB: db, Correspondences: corrs})
		corrCount += len(corrs.All)
	}
	if err := scn.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash, err := persist.ScenarioHash(scn)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("hash scenario: %v", err))
		return
	}
	s.register(tenant(r)+"\x00"+req.Name, &scenarioEntry{scn: scn, hash: hash})
	writeJSON(w, http.StatusCreated, uploadResponse{
		Name: req.Name, Hash: hash, Sources: len(scn.Sources), Correspondences: corrCount,
	})
}

// addDiscovered appends the discovered correspondences that no explicit
// one already names (same source and target table and column): an
// explicit correspondence wins over the matcher's guess at the same pair.
func addDiscovered(explicit, discovered []match.Correspondence) []match.Correspondence {
	type pair struct{ st, sc, tt, tc string }
	named := make(map[pair]bool, len(explicit))
	for _, c := range explicit {
		named[pair{c.SourceTable, c.SourceColumn, c.TargetTable, c.TargetColumn}] = true
	}
	for _, c := range discovered {
		if !named[pair{c.SourceTable, c.SourceColumn, c.TargetTable, c.TargetColumn}] {
			explicit = append(explicit, c)
		}
	}
	return explicit
}

// scenarioInfo is one row of GET /v1/scenarios.
type scenarioInfo struct {
	Name    string `json:"name"`
	Hash    string `json:"hash"`
	Sources int    `json:"sources"`
}

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	prefix := tenant(r) + "\x00"
	s.mu.Lock()
	s.sweepExpiredLocked()
	infos := make([]scenarioInfo, 0, len(s.scenarios))
	for key, e := range s.scenarios {
		if name, ok := strings.CutPrefix(key, prefix); ok {
			infos = append(infos, scenarioInfo{Name: name, Hash: e.hash, Sources: len(e.scn.Sources)})
		}
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": infos})
}

// estimateRequest is the POST /v1/estimate body. Unset policy fields
// inherit the server's defaults.
type estimateRequest struct {
	Scenario string `json:"scenario"`
	// Quality is "low" (low effort) or "high" (high quality, default).
	Quality string `json:"quality,omitempty"`
	// TimeoutMs bounds the whole request; 0 inherits the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// ModuleTimeoutMs bounds one detector attempt.
	ModuleTimeoutMs int `json:"moduleTimeoutMs,omitempty"`
	// Retries overrides the per-module retry budget.
	Retries *int `json:"retries,omitempty"`
	// BackoffMs is the wait before the first retry.
	BackoffMs int `json:"backoffMs,omitempty"`
	// BestEffort overrides the degradation mode.
	BestEffort *bool `json:"bestEffort,omitempty"`
	// NoCache bypasses the durable result cache for this request (it
	// still profiles through the durable stats store).
	NoCache bool `json:"noCache,omitempty"`
}

// parseQuality maps the wire quality to effort.Quality.
func parseQuality(q string) (effort.Quality, error) {
	switch q {
	case "", "high":
		return effort.HighQuality, nil
	case "low":
		return effort.LowEffort, nil
	default:
		return 0, fmt.Errorf("unknown quality %q (want \"low\" or \"high\")", q)
	}
}

// requestPolicy derives the per-request resilience policy from the
// server defaults and the request overrides.
func (s *Server) requestPolicy(req estimateRequest) core.Resilience {
	pol := s.cfg.Resilience.policy()
	if req.ModuleTimeoutMs > 0 {
		pol.ModuleTimeout = time.Duration(req.ModuleTimeoutMs) * time.Millisecond
	}
	if req.Retries != nil {
		pol.Retries = *req.Retries
	}
	if req.BackoffMs > 0 {
		pol.Backoff = time.Duration(req.BackoffMs) * time.Millisecond
	}
	if req.BestEffort != nil {
		pol.BestEffort = *req.BestEffort
	}
	return pol
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if !s.decodeBody(w, r, maxRequestBytes, &req) {
		return
	}
	q, err := parseQuality(req.Quality)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A negative retry budget would run no detector attempt at all and
	// price an empty, undegraded result.
	if req.Retries != nil && *req.Retries < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("retries %d is negative", *req.Retries))
		return
	}
	entry, ok := s.lookup(r, req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	key := persist.ResultKey(entry.hash, q, s.cfgPrint, profile.ModeExact)
	if s.cache != nil && !req.NoCache {
		// Memo, then disk. Only bytes a Get returned enter the memo, so
		// it serves exactly what the disk tier would; the Touch keeps the
		// disk entry's recency as a Get would have.
		slot := &entry.results[q]
		if m := slot.Load(); m != nil && m.key == key {
			s.cache.Touch("results", key)
			s.resultMemoHits.Add(1)
			s.serveHit(w, m.data)
			return
		}
		if data, ok := s.cache.Get("results", key); ok {
			slot.Store(&memoResult{key: key, data: data})
			s.serveHit(w, data)
			return
		}
	}
	s.resultMisses.Add(1)
	defer s.releaseIfDropped(r, req.Scenario, entry)

	pol := s.requestPolicy(req)
	ctx := r.Context()
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := s.fw.WithResilience(pol).EstimateContext(ctx, entry.scn, q)
	if err != nil {
		// The request deadline expired but the client is still there: a
		// best-effort service still owes an answer — the all-fallback
		// baseline estimate, clearly marked degraded, never a 500.
		if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil && pol.BestEffort {
			res, ferr := s.fw.FallbackResult(entry.scn, q, context.DeadlineExceeded)
			if ferr != nil {
				writeError(w, http.StatusInternalServerError, ferr.Error())
				return
			}
			s.fallbacks.Add(1)
			s.degraded.Add(1)
			s.writeResult(w, res, key, true)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if res.Degraded() {
		s.degraded.Add(1)
	}
	s.writeResult(w, res, key, !req.NoCache)
}

// serveHit serves result bytes from the memo or the disk tier.
func (s *Server) serveHit(w http.ResponseWriter, data []byte) {
	s.resultHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Efes-Cache", "hit")
	w.Write(data)
}

// writeResult serves a freshly computed Result and — when it is clean
// and a durable cache is configured — persists its exact bytes, so a
// later warm hit is byte-identical to this response. Degraded results
// are never persisted: they reflect a transient failure, not the data.
func (s *Server) writeResult(w http.ResponseWriter, res *core.Result, key string, cacheable bool) {
	data, err := res.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encode result: %v", err))
		return
	}
	data = append(data, '\n')
	if s.cache != nil && cacheable && !res.Degraded() {
		s.cache.Put("results", key, data)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Efes-Cache", "miss")
	if res.Degraded() {
		w.Header().Set("X-Efes-Degraded", "1")
	}
	w.Write(data)
}

// profileRequest is the POST /v1/profile body.
type profileRequest struct {
	Scenario string `json:"scenario"`
	// DB selects the database: "target" or a source name.
	DB     string `json:"db"`
	Table  string `json:"table"`
	Column string `json:"column"`
}

// namesTarget reports whether a database name addresses a scenario's
// target, so that no source can be named by it.
func namesTarget(name string) bool { return name == "" || name == "target" }

// resolveDB finds the requested database within a scenario.
func resolveDB(e *scenarioEntry, name string) (*relational.Database, bool) {
	if namesTarget(name) {
		return e.scn.Target, true
	}
	for _, src := range e.scn.Sources {
		if src.Name == name {
			return src.DB, true
		}
	}
	return nil, false
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if !s.decodeBody(w, r, maxRequestBytes, &req) {
		return
	}
	entry, ok := s.lookup(r, req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	db, ok := resolveDB(entry, req.DB)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown database %q", req.DB))
		return
	}
	defer s.releaseIfDropped(r, req.Scenario, entry)
	stats, err := s.prof.ColumnContext(r.Context(), db, req.Table, req.Column)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.profileExact.Add(1)
	writeJSON(w, http.StatusOK, stats)
}

// matchRequest is the POST /v1/match body.
type matchRequest struct {
	Scenario string `json:"scenario"`
	// Source selects the source database to match against the target.
	Source string `json:"source"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req matchRequest
	if !s.decodeBody(w, r, maxRequestBytes, &req) {
		return
	}
	entry, ok := s.lookup(r, req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	db, ok := resolveDB(entry, req.Source)
	if !ok || namesTarget(req.Source) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown source %q", req.Source))
		return
	}
	set := match.NewMatcher().Match(db, entry.scn.Target)
	var buf bytes.Buffer
	if err := set.WriteText(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(set.All),
		"text":  buf.String(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusResponse is the GET /v1/status body: one self-describing
// snapshot of the daemon's request, profiler, and cache counters.
type statusResponse struct {
	Draining  bool  `json:"draining"`
	Scenarios int   `json:"scenarios"`
	InFlight  int64 `json:"inflight"`
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Panics    int64 `json:"panics"`
	// TooLarge counts request bodies refused with 413 for exceeding
	// their limit.
	TooLarge int64 `json:"tooLarge"`

	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	Degraded     int64 `json:"degraded"`
	Fallbacks    int64 `json:"fallbacks"`

	// ResultMemoHits is the share of ResultHits served from a resident
	// scenario's memo slot; the rest were read from the disk cache.
	ResultMemoHits int64 `json:"resultMemoHits"`

	// Scenario-store eviction counters (see evict.go): scenarios
	// dropped by the LRU cap and by idle-TTL expiry.
	ScenariosEvictedLRU int64 `json:"scenariosEvictedLRU"`
	ScenariosEvictedTTL int64 `json:"scenariosEvictedTTL"`

	ProfileHits     int64 `json:"profileHits"`
	ProfileMisses   int64 `json:"profileMisses"`
	ProfileDiskHits int64 `json:"profileDiskHits"`
	ProfileComputes int64 `json:"profileComputes"`
	// ProfileExact counts the /v1/profile requests served. Every profile
	// is exact; the name is kept for existing status readers.
	ProfileExact int64 `json:"profileExact"`

	Cache *persist.Stats `json:"cache,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	s.sweepExpiredLocked()
	scenarios := len(s.scenarios)
	s.mu.Unlock()
	hits, misses := s.prof.Counters()
	diskHits, computes := s.prof.DiskCounters()
	resp := statusResponse{
		Draining:            s.draining.Load(),
		Scenarios:           scenarios,
		InFlight:            s.inflight.Load(),
		Admitted:            s.admitted.Load(),
		Shed:                s.shed.Load(),
		Panics:              s.panics.Load(),
		TooLarge:            s.tooLarge.Load(),
		ResultHits:          s.resultHits.Load(),
		ResultMemoHits:      s.resultMemoHits.Load(),
		ResultMisses:        s.resultMisses.Load(),
		Degraded:            s.degraded.Load(),
		Fallbacks:           s.fallbacks.Load(),
		ScenariosEvictedLRU: s.evictedLRU.Load(),
		ScenariosEvictedTTL: s.evictedTTL.Load(),
		ProfileHits:         hits,
		ProfileMisses:       misses,
		ProfileDiskHits:     diskHits,
		ProfileComputes:     computes,
		ProfileExact:        s.profileExact.Load(),
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	writeJSON(w, http.StatusOK, resp)
}
