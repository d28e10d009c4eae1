package profile

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"efes/internal/relational"
)

// The property tests of the columnar kernels (shard.go) compare them with
// the seed row-path implementation (Values in stats.go), which is kept as
// the oracle: random typed columns with NULLs, ±Inf, NaN, -0,
// 1e16-magnitude values, and unicode strings are profiled through both
// paths — raw and through every coercion target — and every float is
// compared by bit pattern. This file holds the generators, the
// comparison, the property grid at one worker and the test of inserts
// after a first profile; shard_test.go runs the grid at more workers and
// adds multi-chunk columns.

var allTypes = []relational.Type{
	relational.String, relational.Integer, relational.Float, relational.Bool, relational.Time,
}

// randomValue draws one cell for a column of the given type: NULLs, edge
// cases (infinities, NaN, negative zero, >2^53 magnitudes, unicode,
// parseable-as-other-type strings), and a duplicate-heavy tail so top-k
// count ties occur.
func randomValue(rng *rand.Rand, typ relational.Type) relational.Value {
	if rng.Float64() < 0.15 {
		return nil
	}
	switch typ {
	case relational.String:
		pool := []string{
			"", "abc", "héllo wörld", "日本語のテキスト", "123", " 42 ", "3.14",
			"1e16", "NaN", "Inf", "-0", "true", "True", "FALSE",
			"2021-01-02", "2021-01-02 13:14:15", "2021-01-02T13:14:15Z",
			"4:43", "Sweet Home Alabama", "215900", "x-y_z",
		}
		if rng.Float64() < 0.6 {
			return pool[rng.Intn(len(pool))]
		}
		runes := []rune("aβ9 é@日\t")
		n := rng.Intn(6)
		out := make([]rune, n)
		for i := range out {
			out[i] = runes[rng.Intn(len(runes))]
		}
		return string(out)
	case relational.Integer:
		pool := []int64{
			0, 1, -1, 42, 10000000000000000, -10000000000000000,
			(1 << 53) + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64,
		}
		if rng.Float64() < 0.3 {
			return pool[rng.Intn(len(pool))]
		}
		return int64(rng.Intn(40)) // duplicate-heavy: forces count ties
	case relational.Float:
		pool := []float64{
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			1e16, -1e16, 1e300, 3.5, 0.1, -2.25, float64((1 << 53) + 1),
		}
		if rng.Float64() < 0.3 {
			return pool[rng.Intn(len(pool))]
		}
		return float64(rng.Intn(40)) // integral: coercible to Integer
	case relational.Bool:
		return rng.Intn(2) == 0
	default: // Time
		base := time.Date(2021, 3, 14, 15, 9, 26, 0, time.UTC)
		zones := []*time.Location{time.UTC, time.FixedZone("X", 3600)}
		return base.Add(time.Duration(rng.Intn(5)) * time.Hour).
			Add(time.Duration(rng.Intn(3)) * 500 * time.Millisecond).
			In(zones[rng.Intn(len(zones))])
	}
}

// randomDB builds a one-column instance of the given type with n rows.
func randomDB(t *testing.T, rng *rand.Rand, typ relational.Type, n int) *relational.Database {
	t.Helper()
	s := relational.NewSchema("prop")
	tab, err := relational.NewTable("t", relational.Column{Name: "c", Type: typ})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := relational.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("t", randomValue(rng, typ))
	}
	return db
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// statsEqual compares two profiles bit-exactly (floats by bit pattern, so
// NaN-valued statistics compare too) and reports every differing field.
func statsEqual(t *testing.T, ctx string, want, got *ColumnStats) {
	t.Helper()
	if want.Table != got.Table || want.Column != got.Column || want.Type != got.Type {
		t.Errorf("%s: identity: want %s.%s %v, got %s.%s %v", ctx,
			want.Table, want.Column, want.Type, got.Table, got.Column, got.Type)
	}
	if want.Rows != got.Rows || want.Nulls != got.Nulls || want.Distinct != got.Distinct {
		t.Errorf("%s: rows/nulls/distinct: want %d/%d/%d, got %d/%d/%d", ctx,
			want.Rows, want.Nulls, want.Distinct, got.Rows, got.Nulls, got.Distinct)
	}
	if !bitsEq(want.Fill, got.Fill) {
		t.Errorf("%s: fill: want %x, got %x", ctx, want.Fill, got.Fill)
	}
	if !bitsEq(want.Constancy, got.Constancy) {
		t.Errorf("%s: constancy: want %x, got %x", ctx, want.Constancy, got.Constancy)
	}
	vcsEqual(t, ctx+": patterns", want.Patterns, got.Patterns)
	vcsEqual(t, ctx+": topk", want.TopK, got.TopK)
	if !bitsEq(want.TopKCoverage, got.TopKCoverage) {
		t.Errorf("%s: topk coverage: want %x, got %x", ctx, want.TopKCoverage, got.TopKCoverage)
	}
	if (want.CharHist == nil) != (got.CharHist == nil) || len(want.CharHist) != len(got.CharHist) {
		t.Errorf("%s: charhist shape: want %d (nil=%v), got %d (nil=%v)", ctx,
			len(want.CharHist), want.CharHist == nil, len(got.CharHist), got.CharHist == nil)
	} else {
		for r, f := range want.CharHist {
			if !bitsEq(f, got.CharHist[r]) {
				t.Errorf("%s: charhist[%q]: want %x, got %x", ctx, r, f, got.CharHist[r])
			}
		}
	}
	if !bitsEq(want.StringLength.Mean, got.StringLength.Mean) || !bitsEq(want.StringLength.StdDev, got.StringLength.StdDev) {
		t.Errorf("%s: string length: want %+v, got %+v", ctx, want.StringLength, got.StringLength)
	}
	if want.HasNumeric != got.HasNumeric {
		t.Errorf("%s: has numeric: want %v, got %v", ctx, want.HasNumeric, got.HasNumeric)
	}
	if !bitsEq(want.Mean.Mean, got.Mean.Mean) || !bitsEq(want.Mean.StdDev, got.Mean.StdDev) {
		t.Errorf("%s: mean: want %+v, got %+v", ctx, want.Mean, got.Mean)
	}
	if !bitsEq(want.Min, got.Min) || !bitsEq(want.Max, got.Max) {
		t.Errorf("%s: range: want [%x,%x], got [%x,%x]", ctx, want.Min, want.Max, got.Min, got.Max)
	}
	if !bitsEq(want.NumHist.Min, got.NumHist.Min) || !bitsEq(want.NumHist.Max, got.NumHist.Max) {
		t.Errorf("%s: hist bounds: want [%x,%x], got [%x,%x]", ctx,
			want.NumHist.Min, want.NumHist.Max, got.NumHist.Min, got.NumHist.Max)
	}
	if (want.NumHist.Buckets == nil) != (got.NumHist.Buckets == nil) || len(want.NumHist.Buckets) != len(got.NumHist.Buckets) {
		t.Errorf("%s: hist shape: want %d buckets (nil=%v), got %d (nil=%v)", ctx,
			len(want.NumHist.Buckets), want.NumHist.Buckets == nil,
			len(got.NumHist.Buckets), got.NumHist.Buckets == nil)
	} else {
		for i := range want.NumHist.Buckets {
			if want.NumHist.Buckets[i] != got.NumHist.Buckets[i] {
				t.Errorf("%s: hist bucket %d: want %d, got %d", ctx, i, want.NumHist.Buckets[i], got.NumHist.Buckets[i])
			}
		}
	}
}

func vcsEqual(t *testing.T, ctx string, want, got []ValueCount) {
	t.Helper()
	if (want == nil) != (got == nil) || len(want) != len(got) {
		t.Errorf("%s: shape: want %d (nil=%v), got %d (nil=%v)", ctx, len(want), want == nil, len(got), got == nil)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s[%d]: want %+v, got %+v", ctx, i, want[i], got[i])
		}
	}
}

// oracleCoerced replicates the seed coerced-profile closure: coerce every
// value, drop failures, profile survivors through the row path.
func oracleCoerced(table, column string, typ relational.Type, values []relational.Value) (*ColumnStats, int) {
	coerced := make([]relational.Value, 0, len(values))
	incompatible := 0
	for _, v := range values {
		cv, err := relational.Coerce(typ, v)
		if err != nil {
			incompatible++
			continue
		}
		coerced = append(coerced, cv)
	}
	return Values(table, column, typ, coerced), incompatible
}

// checkGridAgainstRowPath profiles the property grid (seeds 1–4, every
// type, 0, 1, 7 and 400 rows) through FromVectorSharded and
// FromVectorCoercedSharded at each of the given worker counts, raw and
// through every coercion target, and compares every profile with the row
// path bit for bit.
func checkGridAgainstRowPath(t *testing.T, workerCounts []int) {
	t.Helper()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range allTypes {
			for _, n := range []int{0, 1, 7, 400} {
				db := randomDB(t, rng, typ, n)
				values := db.MustColumn("t", "c")
				vec := db.Vector("t", "c")
				if vec == nil {
					t.Fatal("Vector returned nil for known column")
				}
				for _, workers := range workerCounts {
					ctx := typ.String() + "/raw/w" + strconv.Itoa(workers)
					statsEqual(t, ctx, Values("t", "c", typ, values), FromVectorSharded("t", "c", vec, workers))
					for _, dst := range allTypes {
						want, wantInc := oracleCoerced("t", "c", dst, values)
						got, gotInc := FromVectorCoercedSharded("t", "c", vec, dst, workers)
						cctx := typ.String() + "->" + dst.String() + "/w" + strconv.Itoa(workers)
						if wantInc != gotInc {
							t.Errorf("%s: incompatible: want %d, got %d", cctx, wantInc, gotInc)
						}
						statsEqual(t, cctx, want, got)
					}
				}
			}
		}
	}
}

// TestKernelsBitIdenticalToRowPath runs the grid with one worker, the way
// profile.Column runs the kernels: one shard per column, no merge.
func TestKernelsBitIdenticalToRowPath(t *testing.T) {
	checkGridAgainstRowPath(t, []int{1})
}

// TestKernelsAfterMutations profiles a column, inserts into it, and
// profiles it again: the inserts intern new strings into a sealed
// dictionary and extend the typed vectors and the null bitmap in place,
// and the kernels must still agree with the row path bit for bit, for
// every type and worker count.
func TestKernelsAfterMutations(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range allTypes {
			db := randomDB(t, rng, typ, 120)
			for _, workers := range shardWorkerCounts {
				FromVectorSharded("t", "c", db.Vector("t", "c"), workers)
			}
			for step := 0; step < 60; step++ {
				db.MustInsert("t", randomValue(rng, typ))
			}
			values := db.MustColumn("t", "c")
			vec := db.Vector("t", "c")
			want := Values("t", "c", typ, values)
			for _, workers := range shardWorkerCounts {
				ctx := typ.String() + "/mutated/w" + strconv.Itoa(workers)
				statsEqual(t, ctx, want, FromVectorSharded("t", "c", vec, workers))
			}
			// The text view's dictionary, sorted, must be the row path's
			// distinct renderings too.
			seen := make(map[string]bool)
			var distinct []string
			for _, v := range values {
				if r := relational.FormatValue(v); v != nil && !seen[r] {
					seen[r] = true
					distinct = append(distinct, r)
				}
			}
			slices.Sort(distinct)
			text, _ := vec.Coerced(relational.String)
			sorted := slices.Clone(text.Dict())
			slices.Sort(sorted)
			if !slices.Equal(distinct, sorted) {
				t.Errorf("%v: distinct renderings: row path %q, text view %q", typ, distinct, sorted)
			}
		}
	}
}
