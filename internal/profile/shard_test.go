package profile

import (
	"encoding/binary"
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
// plus mutation sequences that cross chunk boundaries.

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
		// still exercising every sharded coerced kernel.
		var dst relational.Type
		switch typ {
		case relational.String:
			dst = relational.Integer // coercedFromStringSharded
		case relational.Integer:
			dst = relational.String // intStringView over intCountStats
		case relational.Float:
			dst = relational.Integer // floatToIntSharded
		case relational.Bool:
			dst = relational.String
		default:
			dst = relational.String // coercedFallback
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
}

// TestShardedMultiChunkDictionary drives the dictionary-sharded string
// kernel across shard boundaries: more than ChunkSize distinct values,
// so the dict fan-out, the per-shard top-k survivor merge, and the
// disjoint runeLens writes all span multiple shards.
func TestShardedMultiChunkDictionary(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk dictionaries are slow to build")
	}
	const n = relational.ChunkSize + 1000
	s := relational.NewSchema("prop")
	tab, err := relational.NewTable("t", relational.Column{Name: "c", Type: relational.Integer})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := relational.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("t", int64(i)) // all distinct: derived dict > ChunkSize entries
	}
	values := db.MustColumn("t", "c")
	vec := db.Vector("t", "c")
	want := Values("t", "c", relational.Integer, values)
	wantS, _ := oracleCoerced("t", "c", relational.String, values)
	for _, workers := range shardWorkerCounts {
		w := strconv.Itoa(workers)
		statsEqual(t, "int/alldistinct/w"+w, want, FromVectorSharded("t", "c", vec, workers))
		gotS, inc := FromVectorCoercedSharded("t", "c", vec, relational.String, workers)
		if inc != 0 {
			t.Errorf("int->string: unexpected incompatible %d", inc)
		}
		statsEqual(t, "int->string/alldistinct/w"+w, wantS, gotS)
	}
}

// TestShardedAfterMutations mutates a multi-chunk column through the
// incremental maintenance path — including deletes that shift rows
// across the chunk boundary — and requires the sharded kernels to agree
// with the row path bit for bit afterwards.
func TestShardedAfterMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk columns are slow to build")
	}
	rng := rand.New(rand.NewSource(99))
	for _, typ := range []relational.Type{relational.Integer, relational.String} {
		db := randomDB(t, rng, typ, relational.ChunkSize+300)
		if db.Vector("t", "c") == nil {
			t.Fatal("Vector returned nil")
		}
		for step := 0; step < 25; step++ {
			n := db.NumRows("t")
			switch op := rng.Intn(4); {
			case op == 0 || n == 0:
				db.MustInsert("t", randomValue(rng, typ))
			case op == 1:
				if err := db.Update("t", rng.Intn(n), "c", randomValue(rng, typ)); err != nil {
					t.Fatalf("Update: %v", err)
				}
			case op == 2:
				db.Delete("t", rng.Intn(n))
			default:
				db.Delete("t", relational.ChunkSize-2+rng.Intn(5)) // straddle the boundary
			}
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

// FuzzIntToStringView compares the int→string view, which intStringView
// derives from the column's raw profile and one pass over the rows, with
// the row path that renders every value. Besides FromVectorCoercedSharded
// it runs the view through the three ways a Profiler can serve it (see
// profilerStringViews). raw decodes to zigzag varints up to the first
// malformed one, bit i of nullMask makes row i NULL, and workers selects
// 1 to 8 workers. The seed corpus is in testdata/fuzz/FuzzIntToStringView.
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
