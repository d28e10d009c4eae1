package efes_test

// Column-first ingest end to end: a scenario written with SaveDir and
// read back with LoadDir (as cmd/efes and efesd read their inputs) must
// be indistinguishable from the Insert-built original — in its vectors,
// its content hashes, its rows, and the estimate's JSON bytes.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/experiments"
	"efes/internal/mapping"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// loadFresh writes db with SaveDir and reads it back the way cmd/efes
// does: ParseSchemaText over schema.txt, then LoadDir.
func loadFresh(t *testing.T, db *relational.Database, dir string) *relational.Database {
	t.Helper()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(dir, "schema.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := relational.ParseSchemaText(string(text))
	if err != nil {
		t.Fatal(err)
	}
	out := relational.NewDatabase(s)
	if err := out.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameCell(a, b relational.Value) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return relational.FormatValue(a) == relational.FormatValue(b) && fmt.Sprintf("%T", a) == fmt.Sprintf("%T", b)
}

// assertSameVector compares everything a vector exports: shape, null
// bitmap, dictionary, counts, codes and typed payload.
func assertSameVector(t *testing.T, name string, got, want *relational.ColumnVector) {
	t.Helper()
	if got.Type() != want.Type() || got.Len() != want.Len() || got.NullCount() != want.NullCount() {
		t.Fatalf("%s: type/len/nulls = %v/%d/%d, want %v/%d/%d", name,
			got.Type(), got.Len(), got.NullCount(), want.Type(), want.Len(), want.NullCount())
	}
	same := func(field string, g, w int, eq func(i int) bool) {
		t.Helper()
		if g != w {
			t.Fatalf("%s: %s has %d entries, want %d", name, field, g, w)
		}
		for i := 0; i < g; i++ {
			if !eq(i) {
				t.Fatalf("%s: %s differs at %d", name, field, i)
			}
		}
	}
	n := want.Len()
	same("null bitmap", n, n, func(i int) bool { return got.Null(i) == want.Null(i) })
	same("dict", len(got.Dict()), len(want.Dict()), func(i int) bool { return got.Dict()[i] == want.Dict()[i] })
	same("counts", len(got.Counts()), len(want.Counts()), func(i int) bool { return got.Counts()[i] == want.Counts()[i] })
	same("codes", len(got.Codes()), len(want.Codes()), func(i int) bool { return got.Codes()[i] == want.Codes()[i] })
	same("ints", len(got.Ints()), len(want.Ints()), func(i int) bool { return got.Ints()[i] == want.Ints()[i] })
	same("floats", len(got.Floats()), len(want.Floats()), func(i int) bool {
		return math.Float64bits(got.Floats()[i]) == math.Float64bits(want.Floats()[i])
	})
	same("bools", len(got.Bools()), len(want.Bools()), func(i int) bool { return got.Bools()[i] == want.Bools()[i] })
	same("times", len(got.Times()), len(want.Times()), func(i int) bool { return got.Times()[i].Equal(want.Times()[i]) })
}

// assertSameDatabase compares a loaded database with its original table
// by table: hash first (hashing must not need the row view), then the
// vectors, then the rows.
func assertSameDatabase(t *testing.T, got, want *relational.Database) {
	t.Helper()
	for _, tab := range want.Schema.Tables() {
		gh, err := got.ContentHash(tab.Name)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := want.ContentHash(tab.Name)
		if err != nil {
			t.Fatal(err)
		}
		if gh != wh {
			t.Fatalf("%s: ContentHash %s, original %s", tab.Name, gh, wh)
		}
		for i, v := range want.Vectors(tab.Name) {
			assertSameVector(t, tab.Name+"."+tab.Columns[i].Name, got.Vectors(tab.Name)[i], v)
		}
		gr, wr := got.Rows(tab.Name), want.Rows(tab.Name)
		if len(gr) != len(wr) {
			t.Fatalf("%s: %d rows, original %d", tab.Name, len(gr), len(wr))
		}
		for i := range wr {
			for j := range wr[i] {
				if !sameCell(gr[i][j], wr[i][j]) {
					t.Fatalf("%s row %d col %d: %#v, original %#v", tab.Name, i, j, gr[i][j], wr[i][j])
				}
			}
		}
	}
}

// estimateJSON runs a fresh framework, as one efes process would.
func estimateJSON(t *testing.T, scn *core.Scenario, q effort.Quality, workers int) []byte {
	t.Helper()
	vf := valuefit.New()
	vf.Profiler = profile.NewProfiler(workers)
	fw := core.New(effort.DefaultConfig().Calculator(), mapping.New(), structure.New(), vf).SetWorkers(workers)
	res, err := fw.EstimateContext(context.Background(), scn, q)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestColumnFirstLoadMatchesInsert(t *testing.T) {
	scns := []*core.Scenario{scenario.MusicExample(scenario.SmallExampleConfig())}
	for _, pair := range [][2]string{
		{"s1", "s2"}, {"s1", "s3"}, {"s3", "s4"}, {"s4", "s4"},
		{"f1", "m2"}, {"m1", "d2"}, {"m1", "f2"}, {"d1", "d2"},
	} {
		var scn *core.Scenario
		var err error
		if strings.HasPrefix(pair[0], "s") {
			scn, err = scenario.BibliographicScenario(pair[0], pair[1], experiments.DefaultSeed)
		} else {
			scn, err = scenario.MusicScenario(pair[0], pair[1], experiments.DefaultSeed)
		}
		if err != nil {
			t.Fatal(err)
		}
		scns = append(scns, scn)
	}
	for _, orig := range scns {
		orig := orig
		t.Run(orig.Name, func(t *testing.T) {
			dir := t.TempDir()
			loaded := &core.Scenario{Name: orig.Name, Target: loadFresh(t, orig.Target, filepath.Join(dir, "target"))}
			for i, src := range orig.Sources {
				db := loadFresh(t, src.DB, filepath.Join(dir, fmt.Sprint("source", i)))
				loaded.Sources = append(loaded.Sources, &core.Source{Name: src.Name, DB: db, Correspondences: src.Correspondences})
			}
			for _, q := range []effort.Quality{effort.LowEffort, effort.HighQuality} {
				want := estimateJSON(t, orig, q, 1)
				for _, workers := range []int{1, 2} {
					if got := estimateJSON(t, loaded, q, workers); string(got) != string(want) {
						t.Fatalf("%v at %d workers: loaded scenario's JSON differs from the original's", q, workers)
					}
				}
			}
			assertSameDatabase(t, loaded.Target, orig.Target)
			for i, src := range orig.Sources {
				assertSameDatabase(t, loaded.Sources[i].DB, src.DB)
			}
		})
	}
}
