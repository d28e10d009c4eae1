package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"efes/internal/relational"
)

// repeatedStringVector builds a string column of n rows cycling through
// d distinct integer renderings.
func repeatedStringVector(t *testing.T, n, d int) *relational.ColumnVector {
	t.Helper()
	s := relational.NewSchema("alloc")
	tab, err := relational.NewTable("t", relational.Column{Name: "c", Type: relational.String})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	db := relational.NewDatabase(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		db.MustInsert("t", fmt.Sprintf("%d", rng.Intn(d)))
	}
	vec := db.Vector("t", "c")
	if vec == nil {
		t.Fatal("Vector returned nil")
	}
	return vec
}

// TestCoercedFromStringAllocBound is the hotalloc regression for the
// fused coercion kernel: profiling a string column as integers on one
// worker must allocate O(distinct) times, not O(rows) — parsing runs once
// per dictionary entry through the typed helpers with no per-value
// boxing.
func TestCoercedFromStringAllocBound(t *testing.T) {
	const rows, distinct = 4096, 8
	vec := repeatedStringVector(t, rows, distinct)
	allocs := testing.AllocsPerRun(5, func() {
		FromVectorCoercedSharded("t", "c", vec, relational.Integer, 1)
	})
	// Generous fixed overhead (stats struct, count maps, dense vector,
	// finish helpers) plus a few per distinct value; far below one per
	// row, which is what a reintroduced per-value allocation would cost.
	if limit := float64(64 + 8*distinct); allocs > limit {
		t.Errorf("FromVectorCoercedSharded(string→int, %d rows, %d distinct, 1 worker): %v allocs/op, want ≤ %v",
			rows, distinct, allocs, limit)
	}
}

// TestStringKernelAllocBound is the hotalloc regression for the sharded
// string kernel: profiling 20,000 distinct strings of 3 patterns must
// allocate a constant plus a few times per pattern, not once per
// dictionary entry, which is what building each entry's Pattern string
// would cost.
func TestStringKernelAllocBound(t *testing.T) {
	const distinct, patterns = 20000, 3
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
	if got := FromVectorSharded("t", "c", vec, 1); len(got.Patterns) != patterns || got.Distinct != distinct {
		t.Fatalf("%d patterns, %d distinct; want %d, %d", len(got.Patterns), got.Distinct, patterns, distinct)
	}
	allocs := testing.AllocsPerRun(5, func() {
		FromVectorSharded("t", "c", vec, 1)
	})
	if limit := float64(64 + 8*patterns); allocs > limit {
		t.Errorf("FromVectorSharded(string, %d distinct, %d patterns): %v allocs/op, want ≤ %v",
			distinct, patterns, allocs, limit)
	}
}
