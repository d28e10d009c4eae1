package efesd

// Scenario-store lifetime management. Uploaded scenarios hold whole
// parsed databases, so an unattended daemon accepting uploads forever
// would grow without bound — exactly the class of defect the growbound
// lint rule flags. The store is bounded two ways:
//
//   - an LRU cap (Config.MaxScenarios): an upload beyond the cap evicts
//     the least recently used scenario, ordered by a logical recency
//     counter so eviction needs no clock;
//   - an idle TTL (Config.ScenarioTTL + Config.Now): entries idle longer
//     than the TTL are expired lazily by the next lookup or listing.
//
// Evicted scenarios disappear from the store — a later request naming
// one gets 404 and re-uploads; the durable caches are content addressed,
// so the re-upload's profiles and results are still warm. Every scenario
// that leaves the store, evicted or replaced by a re-upload, also leaves
// the shared profiler's memo, which otherwise would keep its databases
// alive (see dropLocked and releaseIfDropped).

import "net/http"

// DefaultMaxScenarios bounds resident scenarios when Config.MaxScenarios
// is zero.
const DefaultMaxScenarios = 128

// maxScenarios resolves the configured cap; <= 0 means unbounded.
func (s *Server) maxScenarios() int {
	switch {
	case s.cfg.MaxScenarios > 0:
		return s.cfg.MaxScenarios
	case s.cfg.MaxScenarios < 0:
		return 0
	default:
		return DefaultMaxScenarios
	}
}

// touchLocked bumps an entry's logical recency and, when the server has
// a clock, its idle-TTL deadline. Caller holds s.mu.
func (s *Server) touchLocked(e *scenarioEntry) {
	s.scnSeq++
	e.seq = s.scnSeq
	if s.cfg.Now != nil {
		e.lastUsed = s.cfg.Now()
	}
}

// expiredLocked reports whether an entry has sat idle past the TTL.
// Caller holds s.mu.
func (s *Server) expiredLocked(e *scenarioEntry) bool {
	return s.cfg.ScenarioTTL > 0 && s.cfg.Now != nil &&
		s.cfg.Now().Sub(e.lastUsed) > s.cfg.ScenarioTTL
}

// dropLocked removes a scenario from the store and its target and
// source databases from the profiler memo. A request still running on
// the scenario keeps its own references and finishes normally. Caller
// holds s.mu.
func (s *Server) dropLocked(key string) {
	if e, ok := s.scenarios[key]; ok {
		delete(s.scenarios, key)
		s.forget(e)
	}
}

// releaseIfDropped is called by a request that used e's databases with
// the profiler once it is done: if e left the store meanwhile, the
// profiles the request added after the drop are released too.
func (s *Server) releaseIfDropped(r *http.Request, name string, e *scenarioEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scenarios[tenant(r)+"\x00"+name] != e {
		s.forget(e)
	}
}

// forget drops a scenario's databases from the profiler memo.
func (s *Server) forget(e *scenarioEntry) {
	s.prof.Forget(e.scn.Target)
	for _, src := range e.scn.Sources {
		s.prof.Forget(src.DB)
	}
}

// sweepExpiredLocked evicts every TTL-expired entry. Caller holds s.mu.
func (s *Server) sweepExpiredLocked() {
	for key, e := range s.scenarios {
		if s.expiredLocked(e) {
			s.dropLocked(key)
			s.evictedTTL.Add(1)
		}
	}
}

// register stores an uploaded scenario (replacing any previous upload
// under the same key) and enforces the LRU cap: expired entries go
// first, then least recently used ones until the store fits.
func (s *Server) register(key string, e *scenarioEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked(e)
	s.dropLocked(key)
	s.scenarios[key] = e
	max := s.maxScenarios()
	if max <= 0 || len(s.scenarios) <= max {
		return
	}
	s.sweepExpiredLocked()
	for len(s.scenarios) > max {
		var victim string
		var vseq int64
		for k, v := range s.scenarios {
			if victim == "" || v.seq < vseq {
				victim, vseq = k, v.seq
			}
		}
		s.dropLocked(victim)
		s.evictedLRU.Add(1)
	}
}
