package profile

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"efes/internal/faultinject"
	"efes/internal/relational"
)

func profilerDB(t *testing.T) *relational.Database {
	t.Helper()
	s := relational.NewSchema("db")
	s.MustAddTable(relational.MustTable("songs",
		relational.Column{Name: "title", Type: relational.String},
		relational.Column{Name: "length", Type: relational.Integer},
	))
	db := relational.NewDatabase(s)
	db.MustInsert("songs", "Sweet Home Alabama", int64(215900))
	db.MustInsert("songs", "Smoke on the Water", int64(340000))
	db.MustInsert("songs", nil, nil)
	return db
}

func TestProfilerMemoizesColumn(t *testing.T) {
	db := profilerDB(t)
	p := NewProfiler(2)
	a, err := p.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second lookup must return the cached *ColumnStats")
	}
	if hits, misses := p.Counters(); hits != 1 || misses != 1 {
		t.Errorf("counters = %d hits / %d misses, want 1/1", hits, misses)
	}
	if p.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", p.HitRate())
	}
	if a.Rows != 3 || a.Nulls != 1 || a.Distinct != 2 {
		t.Errorf("stats = %d rows, %d nulls, %d distinct", a.Rows, a.Nulls, a.Distinct)
	}
}

func TestProfilerCoercedViewIsSeparateEntry(t *testing.T) {
	db := profilerDB(t)
	p := NewProfiler(1)
	raw, err := p.Column(db, "songs", "length")
	if err != nil {
		t.Fatal(err)
	}
	asString, incompatible, err := p.ColumnCoerced(db, "songs", "length", relational.String)
	if err != nil {
		t.Fatal(err)
	}
	if incompatible != 0 {
		t.Errorf("incompatible = %d, want 0 (integers cast to strings)", incompatible)
	}
	if raw == asString {
		t.Error("raw and coerced views must be distinct cache entries")
	}
	if !raw.HasNumeric || asString.HasNumeric {
		t.Error("raw view is numeric, string-coerced view is not")
	}
	if p.Len() != 2 {
		t.Errorf("entries = %d, want 2", p.Len())
	}
	// A view through the declared type is the raw profile itself.
	title, err := p.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	same, sameInc, err := p.ColumnCoerced(db, "songs", "title", relational.String)
	if err != nil {
		t.Fatal(err)
	}
	if same != title || sameInc != 0 {
		t.Errorf("same-type view = %p with %d incompatible, want the raw entry %p with 0", same, sameInc, title)
	}
	if p.Len() != 3 {
		t.Errorf("entries = %d, want 3 (the same-type view adds none)", p.Len())
	}
	// Incompatible values are dropped and counted.
	_, bad, err := p.ColumnCoerced(db, "songs", "title", relational.Integer)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 {
		t.Errorf("incompatible = %d, want 2 (titles do not cast to int)", bad)
	}
}

func TestProfilerUnknownColumn(t *testing.T) {
	db := profilerDB(t)
	p := NewProfiler(1)
	if _, err := p.Column(db, "songs", "ghost"); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := p.Column(db, "ghosts", "title"); err == nil {
		t.Error("unknown table must error")
	}
	if _, _, err := p.ColumnCoerced(db, "ghosts", "title", relational.String); err == nil {
		t.Error("unknown table must error in coerced view")
	}
}

func TestProfilerProfileDatabase(t *testing.T) {
	db := profilerDB(t)
	p := NewProfiler(4)
	all, err := p.ProfileDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("profiles = %d, want 2", len(all))
	}
	if all[0].Column != "title" || all[1].Column != "length" {
		t.Errorf("order = %s, %s; want schema order", all[0].Column, all[1].Column)
	}
}

// TestProfilerConcurrentSharing hammers one Profiler from many goroutines:
// every caller must observe the same memoized profile and the underlying
// profiling work must run exactly once per distinct key (in-flight
// deduplication). Run with -race.
func TestProfilerConcurrentSharing(t *testing.T) {
	db := profilerDB(t)
	p := NewProfiler(4)
	const goroutines = 32
	results := make([]*ColumnStats, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := p.Column(db, "songs", "title")
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := p.ColumnCoerced(db, "songs", "length", relational.String); err != nil {
				t.Error(err)
			}
			results[i] = cs
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("goroutines observed different profile instances")
		}
	}
	// Three distinct keys: the title, the length viewed as a string, and
	// the raw length profile that view is derived from.
	if _, misses := p.Counters(); misses != 3 {
		t.Errorf("misses = %d, want 3 (one per distinct key)", misses)
	}
	if _, computes := p.DiskCounters(); computes != 3 {
		t.Errorf("computes = %d, want 3 (each key computed once)", computes)
	}
	if p.HitRate() < 0.9 {
		t.Errorf("hit rate = %v, want > 0.9 under contention", p.HitRate())
	}
}

// TestProfilerStringViewReusesRawProfile: an integer column viewed as
// strings is derived from the column's raw profile. Requested after the
// raw profile, the view's raw lookup is a memo hit and only the view is
// computed; over a store that holds only the raw profile, the raw profile
// is a disk hit and only the view is computed.
func TestProfilerStringViewReusesRawProfile(t *testing.T) {
	db := profilerDB(t)
	want, _ := oracleCoerced("songs", "length", relational.String, db.MustColumn("songs", "length"))

	p := NewProfiler(1)
	if _, err := p.Column(db, "songs", "length"); err != nil {
		t.Fatal(err)
	}
	view, _, err := p.ColumnCoerced(db, "songs", "length", relational.String)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "raw first", want, view)
	if hits, misses := p.Counters(); hits != 1 || misses != 2 {
		t.Errorf("counters = %d hits / %d misses, want 1/2 (the view's raw lookup is a hit)", hits, misses)
	}
	if _, computes := p.DiskCounters(); computes != 2 {
		t.Errorf("computes = %d, want 2 (the raw profile, then the view)", computes)
	}

	store := newMemStore()
	if _, err := NewProfiler(1).SetStore(store).Column(db, "songs", "length"); err != nil {
		t.Fatal(err)
	}
	warm := NewProfiler(1).SetStore(store)
	view, _, err = warm.ColumnCoerced(db, "songs", "length", relational.String)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "raw from store", want, view)
	if diskHits, computes := warm.DiskCounters(); diskHits != 1 || computes != 1 {
		t.Errorf("disk counters = %d disk hits / %d computes, want 1/1 (the raw profile is not recomputed)", diskHits, computes)
	}
	if store.len() != 2 {
		t.Errorf("store entries = %d, want 2 (the raw profile and the view)", store.len())
	}
}

// TestFaultProfilerPanicInViewLeavesNoEntry: a panic while an int→string
// view looks up its raw profile (the second profile:column fire) must not
// strand the view's in-flight entry. A retry then computes the view
// instead of waiting on an entry that never becomes ready.
func TestFaultProfilerPanicInViewLeavesNoEntry(t *testing.T) {
	defer faultinject.Reset()
	db := profilerDB(t)
	p := NewProfiler(1)
	faultinject.Enable("profile:column", faultinject.Fault{Kind: faultinject.Panic, OnCall: 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("want the injected panic")
			}
		}()
		_, _, _ = p.ColumnCoerced(db, "songs", "length", relational.String)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	view, _, err := p.ColumnCoercedContext(ctx, db, "songs", "length", relational.String)
	if err != nil {
		t.Fatalf("retry after the panic: %v", err)
	}
	want, _ := oracleCoerced("songs", "length", relational.String, db.MustColumn("songs", "length"))
	statsEqual(t, "retry", want, view)
}

func TestProfilerReset(t *testing.T) {
	db := profilerDB(t)
	p := NewProfiler(1)
	if _, err := p.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Len() != 0 {
		t.Error("reset must drop entries")
	}
	if h, m := p.Counters(); h != 0 || m != 0 {
		t.Errorf("counters after reset = %d/%d", h, m)
	}
}

func TestProfilerForget(t *testing.T) {
	kept, dropped := profilerDB(t), profilerDB(t)
	p := NewProfiler(1)
	for _, db := range []*relational.Database{kept, dropped} {
		if _, err := p.ProfileDatabase(db); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := p.ColumnCoerced(dropped, "songs", "length", relational.String); err != nil {
		t.Fatal(err)
	}
	keptStats, err := p.Column(kept, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := p.Counters()
	p.Forget(dropped)
	if p.Len() != 2 {
		t.Errorf("entries after Forget = %d, want the 2 of the kept database", p.Len())
	}
	if h, m := p.Counters(); h != hits || m != misses {
		t.Errorf("counters after Forget = %d/%d, want %d/%d unchanged", h, m, hits, misses)
	}
	if again, err := p.Column(kept, "songs", "title"); err != nil || again != keptStats {
		t.Error("Forget dropped another database's profile")
	}
	p.Forget(dropped) // idempotent
	if p.Len() != 2 {
		t.Errorf("entries after a second Forget = %d, want 2", p.Len())
	}
}

// TestValuesWithNonFiniteNumbers is the regression test for the histogram
// bucket-index panic: profiling a column containing ±Inf used to convert
// NaN bucket positions straight to int and index out of bounds.
func TestValuesWithNonFiniteNumbers(t *testing.T) {
	vals := []relational.Value{math.Inf(1), math.Inf(-1), 3.0, 4.0, nil}
	cs := Values("t", "c", relational.Float, vals)
	if cs.Rows != 5 || cs.Nulls != 1 || !cs.HasNumeric {
		t.Errorf("stats = %d rows, %d nulls, numeric %v", cs.Rows, cs.Nulls, cs.HasNumeric)
	}
	total := 0
	for _, n := range cs.NumHist.Buckets {
		total += n
	}
	if total != 4 {
		t.Errorf("histogram holds %d values, want 4", total)
	}
}
