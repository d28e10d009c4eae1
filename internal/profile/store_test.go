package profile

// Tests for the durable read-through store hook: bit-identical
// round-trips through the JSON envelope, warm starts across Profiler
// instances (the restart story), content-address invalidation on data
// mutation, and the errors-never-persisted contract.

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"efes/internal/faultinject"
	"efes/internal/relational"
)

// memStore is an in-memory Store for tests.
type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	return d, ok
}

func (s *memStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	s.puts++
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestStoreWarmStartServesWithoutRecompute(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()

	p1 := NewProfiler(1).SetStore(store)
	cold, err := p1.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := p1.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("cold counters = %d disk hits / %d computes, want 0/1", dh, comp)
	}
	if store.len() != 1 {
		t.Fatalf("store entries = %d, want 1", store.len())
	}

	// A fresh Profiler (fresh memo — the restarted process) over the same
	// data is served from the store, not recomputed.
	p2 := NewProfiler(1).SetStore(store)
	warm, err := p2.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := p2.DiskCounters(); dh != 1 || comp != 0 {
		t.Errorf("warm counters = %d disk hits / %d computes, want 1/0", dh, comp)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("round-tripped stats differ:\ncold %+v\nwarm %+v", cold, warm)
	}
	// Float fields survive bit-exactly (encoding/json round-trips float64).
	if math.Float64bits(cold.Constancy) != math.Float64bits(warm.Constancy) ||
		math.Float64bits(cold.StringLength.Mean) != math.Float64bits(warm.StringLength.Mean) {
		t.Error("float statistics not bit-identical after round trip")
	}
}

func TestStoreCoercedViewRoundTrip(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()
	p1 := NewProfiler(1).SetStore(store)
	cold, coldInc, err := p1.ColumnCoerced(db, "songs", "title", relational.Integer)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewProfiler(1).SetStore(store)
	warm, warmInc, err := p2.ColumnCoerced(db, "songs", "title", relational.Integer)
	if err != nil {
		t.Fatal(err)
	}
	if coldInc != warmInc {
		t.Errorf("incompatible count lost in round trip: %d vs %d", coldInc, warmInc)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("coerced stats differ:\ncold %+v\nwarm %+v", cold, warm)
	}
	if dh, comp := p2.DiskCounters(); dh != 1 || comp != 0 {
		t.Errorf("warm coerced counters = %d/%d, want 1/0", dh, comp)
	}
}

func TestStoreKeyTracksContent(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()
	p := NewProfiler(1).SetStore(store)
	if _, err := p.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	// Mutating the table moves the content address: a fresh profiler
	// must recompute, not serve the stale profile.
	db.MustInsert("songs", "Bohemian Rhapsody", int64(354000))
	p2 := NewProfiler(1).SetStore(store)
	stats, err := p2.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := p2.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("post-mutation counters = %d disk hits / %d computes, want 0/1", dh, comp)
	}
	if stats.Rows != 4 {
		t.Errorf("rows = %d, want 4 (stale profile served)", stats.Rows)
	}
	if store.len() != 2 {
		t.Errorf("store entries = %d, want 2 (old and new address)", store.len())
	}
}

func TestStoreGarbageIsIgnoredAndRepaired(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()
	p := NewProfiler(1).SetStore(store)
	want, err := p.Column(db, "songs", "length")
	if err != nil {
		t.Fatal(err)
	}
	// Replace every stored entry with garbage / mismatched identities.
	store.mu.Lock()
	var keys []string
	for k := range store.m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		store.m[k] = []byte("{not json")
	}
	store.mu.Unlock()

	p2 := NewProfiler(1).SetStore(store)
	got, err := p2.Column(db, "songs", "length")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("garbage entry changed the computed profile")
	}
	if dh, comp := p2.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("counters = %d/%d, want recompute on garbage", dh, comp)
	}

	// A wrong-identity envelope (valid JSON, different column) is
	// rejected by the sanity check too.
	other, err := p.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(statsEnvelope{Stats: other})
	if err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	for _, k := range keys {
		store.m[k] = data
	}
	store.mu.Unlock()
	p3 := NewProfiler(1).SetStore(store)
	if _, err := p3.Column(db, "songs", "length"); err != nil {
		t.Fatal(err)
	}
	if dh, comp := p3.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("counters = %d/%d, want recompute on identity mismatch", dh, comp)
	}
}

func TestFaultStoreErrorsAreNeverPersisted(t *testing.T) {
	defer faultinject.Reset()
	db := profilerDB(t)
	store := newMemStore()
	p := NewProfiler(1).SetStore(store)
	faultinject.Enable("profile:column", faultinject.Fault{
		Kind: faultinject.Error, Err: errors.New("injected"), Times: 1,
	})
	if _, err := p.Column(db, "songs", "title"); err == nil {
		t.Fatal("want injected error")
	}
	if store.len() != 0 || store.puts != 0 {
		t.Fatalf("failed computation reached the store: %d entries, %d puts", store.len(), store.puts)
	}
	// The failure was transient: the retry computes and persists.
	if _, err := p.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	if store.len() != 1 {
		t.Errorf("store entries = %d, want 1 after recovery", store.len())
	}
}

// keyRecorder is a Store that records the keys the Profiler writes.
type keyRecorder struct {
	mu   sync.Mutex
	puts []string
}

func (s *keyRecorder) Get(string) ([]byte, bool) { return nil, false }

func (s *keyRecorder) Put(key string, _ []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts = append(s.puts, key)
}

// TestStatsKeysPinned pins the durable stats keys the Profiler writes for
// a raw lookup and for a coerced lookup (an integer column viewed as
// strings, which first stores the column's raw profile). The keys are
// content addresses shared by every process over the same cache
// directory: a change that moves one turns every existing cache cold,
// and has to say so and update these constants.
func TestStatsKeysPinned(t *testing.T) {
	const (
		rawTitle    = "926d5c9d1af239bff5c237ba82ee194251a1a3006eeb1a8b1955a06c7681a4b0"
		rawLength   = "dc997b774d3201ba891e40e133577c3ffac9b2f357173197f88a16cfbc4c7482"
		coercedView = "bea22c477c1712be64f96d285f19113ba2854807a7017718dc3c45a6a5451d03"
	)
	db := profilerDB(t)
	rec := &keyRecorder{}
	p := NewProfiler(1).SetStore(rec)
	if _, err := p.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ColumnCoerced(db, "songs", "length", relational.String); err != nil {
		t.Fatal(err)
	}
	want := []string{rawTitle, rawLength, coercedView}
	if !reflect.DeepEqual(rec.puts, want) {
		t.Errorf("stored keys = %q, want the pinned %q", rec.puts, want)
	}
}
