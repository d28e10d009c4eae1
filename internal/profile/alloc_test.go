package profile

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"efes/internal/relational"
)

// repeatedVector builds a column of type typ and n rows, each holding
// value(k) for a random k in [0, d).
func repeatedVector(t *testing.T, typ relational.Type, n, d int, value func(k int) relational.Value) *relational.ColumnVector {
	t.Helper()
	s := relational.NewSchema("alloc")
	s.MustAddTable(relational.MustTable("t", relational.Column{Name: "c", Type: typ}))
	db := relational.NewDatabase(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		db.MustInsert("t", value(rng.Intn(d)))
	}
	vec := db.Vector("t", "c")
	if vec == nil {
		t.Fatal("Vector returned nil")
	}
	return vec
}

// TestCoercedFromStringAllocBound is the hotalloc regression for the
// coerced views: profiling a column through another type must allocate
// O(distinct) times, not O(rows). A string column is parsed once per
// dictionary entry through the typed helpers with no per-value boxing,
// a numeric conversion writes the view's typed slice, and a text view
// renders each value into one reused buffer; so no view can fall back
// to one allocation per row.
func TestCoercedFromStringAllocBound(t *testing.T) {
	const rows, distinct = 4096, 8
	day := time.Date(2021, 3, 14, 15, 9, 26, 0, time.UTC)
	bools := []string{"true", "false", "t", "f", "1", "0", "TRUE", "False"}
	cases := []struct {
		src, dst relational.Type
		value    func(k int) relational.Value
	}{
		{relational.String, relational.Integer, func(k int) relational.Value { return fmt.Sprintf("%d", k) }},
		{relational.String, relational.Float, func(k int) relational.Value { return fmt.Sprintf("%d.5", k) }},
		{relational.String, relational.Bool, func(k int) relational.Value { return bools[k] }},
		{relational.String, relational.Time, func(k int) relational.Value { return day.AddDate(0, 0, k).Format("2006-01-02") }},
		{relational.Integer, relational.Float, func(k int) relational.Value { return int64(k) }},
		{relational.Float, relational.Integer, func(k int) relational.Value { return float64(k) }},
		{relational.Float, relational.String, func(k int) relational.Value { return float64(k) + 0.25 }},
		{relational.Bool, relational.String, func(k int) relational.Value { return k%2 == 0 }},
		{relational.Time, relational.String, func(k int) relational.Value { return day.Add(time.Duration(k) * time.Hour) }},
	}
	for _, c := range cases {
		vec := repeatedVector(t, c.src, rows, distinct, c.value)
		if _, inc := FromVectorCoerced("t", "c", vec, c.dst); inc != 0 {
			t.Fatalf("%v→%v: %d incompatible values, want 0", c.src, c.dst, inc)
		}
		allocs := testing.AllocsPerRun(5, func() {
			FromVectorCoerced("t", "c", vec, c.dst)
		})
		// Generous fixed overhead (stats struct, the view, count maps,
		// dense vector, finish helpers) plus a few per distinct value;
		// far below one per row, which is what a reintroduced per-value
		// allocation would cost.
		if limit := float64(64 + 8*distinct); allocs > limit {
			t.Errorf("FromVectorCoerced(%v→%v, %d rows, %d distinct): %v allocs/op, want ≤ %v",
				c.src, c.dst, rows, distinct, allocs, limit)
		}
	}
}

// TestStringKernelAllocBound is the hotalloc regression for the string
// kernel: profiling 20,000 distinct strings of 3 patterns must allocate
// a constant plus a few times per pattern, not once per dictionary
// entry, which is what building each entry's Pattern string would cost.
// A dictionary of 70,000 entries must allocate no more than the 20,000
// entries do: the kernel walks any dictionary in one pass, so its
// allocations do not grow with the entry count.
func TestStringKernelAllocBound(t *testing.T) {
	const patterns = 3
	allocs := func(distinct int) float64 {
		t.Helper()
		s := relational.NewSchema("alloc")
		s.MustAddTable(relational.MustTable("t", relational.Column{Name: "c", Type: relational.String}))
		db := relational.NewDatabase(s)
		for i := 0; i < distinct; i++ {
			switch i % patterns {
			case 0:
				db.MustInsert("t", fmt.Sprintf("Track %d", i)) // "a 9"
			case 1:
				db.MustInsert("t", fmt.Sprintf("%d:%02d", i/60, i%60)) // "9:9"
			default:
				db.MustInsert("t", fmt.Sprintf("side-%d", i)) // "a-9"
			}
		}
		vec := db.Vector("t", "c")
		if got := FromVector("t", "c", vec); len(got.Patterns) != patterns || got.Distinct != distinct {
			t.Fatalf("%d patterns, %d distinct; want %d, %d", len(got.Patterns), got.Distinct, patterns, distinct)
		}
		return testing.AllocsPerRun(5, func() {
			FromVector("t", "c", vec)
		})
	}
	small := allocs(20000)
	if limit := float64(64 + 8*patterns); small > limit {
		t.Errorf("FromVector(string, 20000 distinct, %d patterns): %v allocs/op, want ≤ %v", patterns, small, limit)
	}
	if large := allocs(70000); large > small {
		t.Errorf("FromVector(string, 70000 distinct, %d patterns): %v allocs/op, want ≤ %v (20000 distinct)", patterns, large, small)
	}
}

// TestTopKDoesNotPinDictionary profiles a float column of 200,000
// distinct values as text through a Profiler, which keeps the profile.
// The text view's dictionary entries are slices of one backing string,
// so a top-k value kept as it is would keep all 200,000 renderings
// alive; finishTopK copies the values, and the live heap must grow by
// less than 1 MB.
func TestTopKDoesNotPinDictionary(t *testing.T) {
	const n = 200000
	s := relational.NewSchema("pin")
	s.MustAddTable(relational.MustTable("t", relational.Column{Name: "c", Type: relational.Float}))
	db := relational.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("t", float64(i)+0.125)
	}
	p := NewProfiler(1)
	before := liveHeap()
	if _, _, err := p.ColumnCoerced(db, "t", "c", relational.String); err != nil {
		t.Fatalf("ColumnCoerced: %v", err)
	}
	grew := float64(int64(liveHeap())-int64(before)) / (1 << 20)
	runtime.KeepAlive(p)
	runtime.KeepAlive(db)
	if grew >= 1 {
		t.Errorf("profiling %d distinct floats as text kept %.2f MB live, want < 1 MB", n, grew)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
