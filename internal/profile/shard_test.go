package profile

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"efes/internal/relational"
)

// The sharded kernels must be bit-identical to the seed row path (Values
// and oracleCoerced) at every worker count. The suites below run the
// property grid of kernels_test.go through FromVectorSharded and
// FromVectorCoercedSharded, then add multi-chunk columns (>
// relational.ChunkSize rows, and > ChunkSize distinct values for the
// dictionary-sharded string kernel) that the small grid cannot reach,
// plus inserts that cross the chunk boundary after a first profile.

var shardWorkerCounts = []int{1, 2, 3, 8}

// TestShardedBitIdenticalToRowPath runs the grid of kernels_test.go at
// more than one worker, so the per-shard partials are merged.
func TestShardedBitIdenticalToRowPath(t *testing.T) {
	checkGridAgainstRowPath(t, []int{2, 3, 8})
}

// TestShardedMultiChunk crosses the chunk boundary: > ChunkSize rows, so
// the per-chunk partial merge actually runs, against the row path.
func TestShardedMultiChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk columns are slow to build")
	}
	const n = relational.ChunkSize + 1337
	rng := rand.New(rand.NewSource(42))
	for _, typ := range allTypes {
		db := randomDB(t, rng, typ, n)
		values := db.MustColumn("t", "c")
		vec := db.Vector("t", "c")
		want := Values("t", "c", typ, values)
		for _, workers := range shardWorkerCounts {
			ctx := typ.String() + "/multichunk/w" + strconv.Itoa(workers)
			statsEqual(t, ctx, want, FromVectorSharded("t", "c", vec, workers))
		}
		// One coercion per source type keeps the runtime sane while
		// still profiling a view of every source type past one chunk.
		var dst relational.Type
		switch typ {
		case relational.String:
			dst = relational.Integer // parsed dictionary → int kernel
		case relational.Integer:
			dst = relational.String // intStringView over the raw profile
		case relational.Float:
			dst = relational.Integer // float→int view → int kernel
		case relational.Bool:
			dst = relational.String // text view → string kernel
		default:
			dst = relational.String // text view → string kernel
		}
		wantC, wantInc := oracleCoerced("t", "c", dst, values)
		for _, workers := range shardWorkerCounts {
			gotC, gotInc := FromVectorCoercedSharded("t", "c", vec, dst, workers)
			cctx := typ.String() + "->" + dst.String() + "/multichunk/w" + strconv.Itoa(workers)
			if wantInc != gotInc {
				t.Errorf("%s: incompatible: want %d, got %d", cctx, wantInc, gotInc)
			}
			statsEqual(t, cctx, wantC, gotC)
		}
	}
	// Integer columns on each side of the dense count's span limit, with
	// NULLs and a value frequent enough to wrap its dense counter: their
	// non-NULL values span exactly denseSpanPerRow values per non-NULL row
	// (counted densely), or one value more (sorted in per-chunk runs and
	// merged).
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
		values := db.MustColumn("t", "c")
		want := Values("t", "c", relational.Integer, values)
		for _, workers := range shardWorkerCounts {
			ctx := "int/span8n+" + strconv.FormatUint(extra, 10) + "/multichunk/w" + strconv.Itoa(workers)
			statsEqual(t, ctx, want, FromVectorSharded("t", "c", db.Vector("t", "c"), workers))
		}
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

// TestShardedMultiChunkDictionary profiles columns of more than
// ChunkSize distinct values: an int column, raw and through
// intStringView, and a float column viewed as text, whose view's
// dictionary drives the dictionary-sharded string kernel across shard
// boundaries, so the dict fan-out, the per-shard top-k survivor merge,
// and the disjoint runeLens writes all span multiple shards.
func TestShardedMultiChunkDictionary(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk dictionaries are slow to build")
	}
	const n = relational.ChunkSize + 1000
	s := relational.NewSchema("prop")
	s.MustAddTable(relational.MustTable("t",
		relational.Column{Name: "c", Type: relational.Integer},
		relational.Column{Name: "f", Type: relational.Float}))
	db := relational.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("t", int64(i), float64(i)+0.5) // all distinct
	}
	values := db.MustColumn("t", "c")
	vec := db.Vector("t", "c")
	want := Values("t", "c", relational.Integer, values)
	wantS, _ := oracleCoerced("t", "c", relational.String, values)
	wantF, _ := oracleCoerced("t", "f", relational.String, db.MustColumn("t", "f"))
	for _, workers := range shardWorkerCounts {
		w := strconv.Itoa(workers)
		statsEqual(t, "int/alldistinct/w"+w, want, FromVectorSharded("t", "c", vec, workers))
		gotS, inc := FromVectorCoercedSharded("t", "c", vec, relational.String, workers)
		if inc != 0 {
			t.Errorf("int->string: unexpected incompatible %d", inc)
		}
		statsEqual(t, "int->string/alldistinct/w"+w, wantS, gotS)
		gotF, inc := FromVectorCoercedSharded("t", "f", db.Vector("t", "f"), relational.String, workers)
		if inc != 0 {
			t.Errorf("float->string: unexpected incompatible %d", inc)
		}
		statsEqual(t, "float->string/alldistinct/w"+w, wantF, gotF)
	}
}

// TestShardedAfterMutations profiles a column just short of the chunk
// boundary, inserts across it, and requires the sharded kernels to
// agree with the row path bit for bit afterwards, for every type.
func TestShardedAfterMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk columns are slow to build")
	}
	rng := rand.New(rand.NewSource(99))
	for _, typ := range allTypes {
		db := randomDB(t, rng, typ, relational.ChunkSize-150)
		for _, workers := range shardWorkerCounts {
			FromVectorSharded("t", "c", db.Vector("t", "c"), workers)
		}
		for step := 0; step < 300; step++ {
			db.MustInsert("t", randomValue(rng, typ))
		}
		values := db.MustColumn("t", "c")
		vec := db.Vector("t", "c")
		want := Values("t", "c", typ, values)
		for _, workers := range shardWorkerCounts {
			ctx := typ.String() + "/mutated/w" + strconv.Itoa(workers)
			statsEqual(t, ctx, want, FromVectorSharded("t", "c", vec, workers))
		}
	}
}

// FuzzIntToStringView compares an integer column's raw profile and its
// int→string view with the row path that renders every value. The raw
// profile counts the column densely or by sorted runs, depending on its
// span (intKernelSharded); the view is derived from the raw profile and
// one pass over the rows (intStringView). Besides FromVectorCoercedSharded
// it runs the view through the three ways a Profiler can serve it (see
// profilerStringViews). raw decodes to zigzag varints up to the first
// malformed one, bit i of nullMask makes row i NULL, and workers selects
// 1 to 8 workers. The seed corpus is in testdata/fuzz/FuzzIntToStringView;
// its dense_* and sorted_* seeds sit on either side of the dense count's
// span limit, count_255_256_512 crosses the dense counters' wrap, and
// min_max_int64 spans all of int64.
func FuzzIntToStringView(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, nullMask []byte, workers uint8) {
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
		w := 1 + int(workers)%8
		statsEqual(t, "int/w"+strconv.Itoa(w), Values("t", "c", relational.Integer, values),
			FromVectorSharded("t", "c", db.Vector("t", "c"), w))
		got, inc := FromVectorCoercedSharded("t", "c", db.Vector("t", "c"), relational.String, w)
		if inc != 0 {
			t.Errorf("incompatible = %d, want 0", inc)
		}
		want, _ := oracleCoerced("t", "c", relational.String, values)
		ctx := "int->string/w" + strconv.Itoa(w)
		statsEqual(t, ctx, want, got)
		for _, v := range profilerStringViews(t, db, "t", "c", w) {
			statsEqual(t, ctx+"/"+v.Path, want, v.Stats)
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
// Profilers of workers workers: one asked for the view first, so the raw
// profile is computed inside the view's lookup; one asked for the raw
// profile first; and one whose store holds only the raw profile's JSON,
// so the raw profile arrives through a JSON round trip. It fails t if a
// lookup errors, reports incompatible values, or the store path
// recomputes the raw profile.
func profilerStringViews(t *testing.T, db *relational.Database, table, column string, workers int) []profiledView {
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
	viewFirst := view(NewProfiler(workers))

	p := NewProfiler(workers)
	if _, err := p.Column(db, table, column); err != nil {
		t.Fatalf("Column: %v", err)
	}
	rawFirst := view(p)

	store := newMemStore()
	if _, err := NewProfiler(workers).SetStore(store).Column(db, table, column); err != nil {
		t.Fatalf("Column: %v", err)
	}
	warm := NewProfiler(workers).SetStore(store)
	fromStore := view(warm)
	if diskHits, computes := warm.DiskCounters(); diskHits != 1 || computes != 1 {
		t.Errorf("store path: %d disk hits, %d computes; want 1 (the raw profile) and 1 (the view)", diskHits, computes)
	}
	return []profiledView{{"view-first", viewFirst}, {"raw-first", rawFirst}, {"raw-from-store", fromStore}}
}
