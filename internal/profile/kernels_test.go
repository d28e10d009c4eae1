package profile

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"efes/internal/relational"
)

// The property tests of the columnar kernels (kernels.go) compare them
// with the seed row-path implementation (Values in stats.go), which is
// kept as the oracle: random typed columns with NULLs, ±Inf, NaN, -0,
// 1e16-magnitude values, and unicode strings are profiled through both
// paths — raw and through every coercion target — and every float is
// compared by bit pattern. This file holds the generators, the
// comparison, the property grid, the columns of more than 65,536 rows
// or distinct values the grid cannot reach, the tests of inserts after a
// first profile, and the int→string view's fuzz target.

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

// checkAgainstRowPath profiles column col of table t in db through
// FromVector, and through FromVectorCoerced for each type of dsts, and
// compares every profile with the row path bit for bit.
func checkAgainstRowPath(t *testing.T, ctx string, db *relational.Database, col string, dsts []relational.Type) {
	t.Helper()
	values := db.MustColumn("t", col)
	vec := db.Vector("t", col)
	if vec == nil {
		t.Fatal("Vector returned nil for known column")
	}
	statsEqual(t, ctx+"/raw", Values("t", col, vec.Type(), values), FromVector("t", col, vec))
	for _, dst := range dsts {
		want, wantInc := oracleCoerced("t", col, dst, values)
		got, gotInc := FromVectorCoerced("t", col, vec, dst)
		cctx := ctx + "->" + dst.String()
		if wantInc != gotInc {
			t.Errorf("%s: incompatible: want %d, got %d", cctx, wantInc, gotInc)
		}
		statsEqual(t, cctx, want, got)
	}
}

// TestKernelsBitIdenticalToRowPath runs the property grid (seeds 1–4,
// every type, 0, 1, 7 and 400 rows, raw and through every coercion
// target) against the row path.
func TestKernelsBitIdenticalToRowPath(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range allTypes {
			for _, n := range []int{0, 1, 7, 400} {
				checkAgainstRowPath(t, typ.String()+"/n"+strconv.Itoa(n), randomDB(t, rng, typ, n), "c", allTypes)
			}
		}
	}
}

// TestShardedMultiChunk profiles columns of more than 65,536 rows, the
// size the grid cannot reach, against the row path: one of every type,
// which keeps the sort path pinned at scale with NaN, -0 and NULLs in its
// input, and integer columns on either side of the dense count's span
// limit.
func TestShardedMultiChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("columns of more than 65,536 rows are slow to build")
	}
	const n = 1<<16 + 1337
	rng := rand.New(rand.NewSource(42))
	for _, typ := range allTypes {
		// One coercion per source type keeps the runtime sane while
		// still profiling a large view of every source type.
		dst := relational.String // text view → string kernel
		switch typ {
		case relational.String:
			dst = relational.Integer // parsed dictionary → int kernel
		case relational.Float:
			dst = relational.Integer // float→int view → int kernel
		}
		checkAgainstRowPath(t, typ.String()+"/large", randomDB(t, rng, typ, n), "c", []relational.Type{dst})
	}
	// Integer columns on each side of the dense count's span limit, with
	// NULLs and a value frequent enough to wrap its dense counter: their
	// non-NULL values span exactly denseSpanPerRow values per non-NULL row
	// (counted densely), or one value more (sorted).
	for _, extra := range []uint64{0, 1} {
		s := relational.NewSchema("prop")
		s.MustAddTable(relational.MustTable("t", relational.Column{Name: "c", Type: relational.Integer}))
		db := relational.NewDatabase(s)
		nonNull := 0
		for i := 0; i < n; i++ {
			if i%7 != 3 {
				nonNull++
			}
		}
		span := denseSpanPerRow*uint64(nonNull) - 1 + extra
		for i, k := 0, 0; i < n; i++ {
			if i%7 == 3 {
				db.MustInsert("t", nil)
				continue
			}
			switch {
			case k == 0:
				db.MustInsert("t", int64(-1000))
			case k == 1:
				db.MustInsert("t", int64(span)-1000)
			case k%3 == 0:
				db.MustInsert("t", int64(42))
			default:
				db.MustInsert("t", int64(-1000+rng.Int63n(int64(span)+1)))
			}
			k++
		}
		ctx := "int/span8n+" + strconv.FormatUint(extra, 10)
		checkAgainstRowPath(t, ctx, db, "c", []relational.Type{relational.String})
	}
}

// TestShardedMultiChunkDictionary profiles all-distinct columns of more
// than 65,536 rows against the row path: the int column is sorted raw and
// derives its text view through intStringView; the float column is
// sorted raw, and its text view runs the string kernel over a dictionary
// of more than 65,536 entries.
func TestShardedMultiChunkDictionary(t *testing.T) {
	if testing.Short() {
		t.Skip("dictionaries of more than 65,536 entries are slow to build")
	}
	const n = 1<<16 + 1000
	s := relational.NewSchema("prop")
	s.MustAddTable(relational.MustTable("t",
		relational.Column{Name: "c", Type: relational.Integer},
		relational.Column{Name: "f", Type: relational.Float}))
	db := relational.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("t", int64(i), float64(i)+0.5)
	}
	checkAgainstRowPath(t, "int/alldistinct", db, "c", []relational.Type{relational.String})
	checkAgainstRowPath(t, "float/alldistinct", db, "f", []relational.Type{relational.String})
}

// TestKernelsAfterMutations profiles a column, inserts into it, and
// profiles it again: the inserts intern new strings into a sealed
// dictionary and extend the typed vectors and the null bitmap in place,
// and the kernels must still agree with the row path bit for bit, for
// every type.
func TestKernelsAfterMutations(t *testing.T) {
	for seed := int64(10); seed <= 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range allTypes {
			db := randomDB(t, rng, typ, 120)
			FromVector("t", "c", db.Vector("t", "c"))
			for step := 0; step < 60; step++ {
				db.MustInsert("t", randomValue(rng, typ))
			}
			values := db.MustColumn("t", "c")
			vec := db.Vector("t", "c")
			statsEqual(t, typ.String()+"/mutated", Values("t", "c", typ, values), FromVector("t", "c", vec))
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

// TestShardedAfterMutations profiles a column of 65,386 rows, inserts
// 300 more, so the column grows past 65,536 rows, and requires the
// kernels to agree with the row path bit for bit afterwards, for every
// type.
func TestShardedAfterMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("columns of more than 65,536 rows are slow to build")
	}
	rng := rand.New(rand.NewSource(99))
	for _, typ := range allTypes {
		db := randomDB(t, rng, typ, 1<<16-150)
		FromVector("t", "c", db.Vector("t", "c"))
		for step := 0; step < 300; step++ {
			db.MustInsert("t", randomValue(rng, typ))
		}
		values := db.MustColumn("t", "c")
		statsEqual(t, typ.String()+"/mutated", Values("t", "c", typ, values), FromVector("t", "c", db.Vector("t", "c")))
	}
}

// TestDecimalLen compares decimalLen with the length of the rendering on
// either side of every power of ten and of two, where its bit-length
// estimate and its float64 shortcut change, and at both ends of int64.
func TestDecimalLen(t *testing.T) {
	vs := []int64{0, math.MinInt64, math.MinInt64 + 1, math.MaxInt64}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		vs = append(vs, p-1, p, p+1, -p, 10*p-1)
	}
	for k := 0; k < 63; k++ {
		p := int64(1) << k
		vs = append(vs, p-1, p, p+1, -p, -p-1)
	}
	for _, v := range vs {
		if got, want := decimalLen(v), len(strconv.FormatInt(v, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// FuzzIntToStringView compares an integer column's raw profile and its
// int→string view with the row path that renders every value. The raw
// profile counts the column densely or by one sort, depending on its
// span (intKernel); the view is derived from the raw profile and one
// pass over the rows (intStringView). Besides FromVectorCoerced it runs
// the view through the three ways a Profiler can serve it (see
// profilerStringViews). raw decodes to zigzag varints up to the first
// malformed one, and bit i of nullMask makes row i NULL. The seed corpus
// is in testdata/fuzz/FuzzIntToStringView; its dense_* and sorted_*
// seeds sit on either side of the dense count's span limit,
// count_255_256_512 crosses the dense counters' wrap, and min_max_int64
// spans all of int64.
func FuzzIntToStringView(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, nullMask []byte) {
		var values []relational.Value
		for len(raw) > 0 {
			x, n := binary.Varint(raw)
			if n <= 0 {
				break
			}
			raw = raw[n:]
			if i := len(values); i/8 < len(nullMask) && nullMask[i/8]>>(i%8)&1 == 1 {
				values = append(values, nil)
			} else {
				values = append(values, x)
			}
		}
		s := relational.NewSchema("fuzz")
		s.MustAddTable(relational.MustTable("t", relational.Column{Name: "c", Type: relational.Integer}))
		db := relational.NewDatabase(s)
		for _, v := range values {
			db.MustInsert("t", v)
		}
		statsEqual(t, "int", Values("t", "c", relational.Integer, values), FromVector("t", "c", db.Vector("t", "c")))
		got, inc := FromVectorCoerced("t", "c", db.Vector("t", "c"), relational.String)
		if inc != 0 {
			t.Errorf("incompatible = %d, want 0", inc)
		}
		want, _ := oracleCoerced("t", "c", relational.String, values)
		statsEqual(t, "int->string", want, got)
		for _, v := range profilerStringViews(t, db, "t", "c") {
			statsEqual(t, "int->string/"+v.Path, want, v.Stats)
		}
	})
}

// profiledView is one Profiler's int→string view, named by how the
// Profiler came by the raw profile the view is derived from.
type profiledView struct {
	Path  string
	Stats *ColumnStats
}

// profilerStringViews returns table.column viewed as strings by three
// Profilers: one asked for the view first, so the raw profile is
// computed inside the view's lookup; one asked for the raw profile
// first; and one whose store holds only the raw profile's JSON, so the
// raw profile arrives through a JSON round trip. It fails t if a lookup
// errors, reports incompatible values, or the store path recomputes the
// raw profile.
func profilerStringViews(t *testing.T, db *relational.Database, table, column string) []profiledView {
	t.Helper()
	view := func(p *Profiler) *ColumnStats {
		t.Helper()
		cs, inc, err := p.ColumnCoerced(db, table, column, relational.String)
		if err != nil {
			t.Fatalf("ColumnCoerced: %v", err)
		}
		if inc != 0 {
			t.Errorf("ColumnCoerced: incompatible = %d, want 0", inc)
		}
		return cs
	}
	viewFirst := view(NewProfiler(1))

	p := NewProfiler(1)
	if _, err := p.Column(db, table, column); err != nil {
		t.Fatalf("Column: %v", err)
	}
	rawFirst := view(p)

	store := newMemStore()
	if _, err := NewProfiler(1).SetStore(store).Column(db, table, column); err != nil {
		t.Fatalf("Column: %v", err)
	}
	warm := NewProfiler(1).SetStore(store)
	fromStore := view(warm)
	if diskHits, computes := warm.DiskCounters(); diskHits != 1 || computes != 1 {
		t.Errorf("store path: %d disk hits, %d computes; want 1 (the raw profile) and 1 (the view)", diskHits, computes)
	}
	return []profiledView{{"view-first", viewFirst}, {"raw-first", rawFirst}, {"raw-from-store", fromStore}}
}
