package relational

// Column-first ingest against the row path it replaced. ReadCSV decodes
// straight into column vectors; readCSVRows below is the old row-building
// body, kept as the oracle: it decodes with encoding/csv and Coerce,
// stages Rows, and commits them with Insert. vectorsFromRows is the old
// vector build (one appendValue per cell). A column-first load must agree
// with both byte for byte: error text, rows, every vector field, hash.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// readCSVRows is the row-path oracle of ReadCSV.
func readCSVRows(db *Database, table string, r io.Reader) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(t.Columns)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relational: read csv for %s: %w", table, err)
	}
	for i, name := range header {
		if name != t.Columns[i].Name {
			return fmt.Errorf("relational: csv header mismatch for %s: got %q, want %q", table, name, t.Columns[i].Name)
		}
	}
	var staged []Row
	for {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("relational: read csv for %s: %w", table, err)
		}
		row := make(Row, len(record))
		for i, field := range record {
			if field == "" {
				continue // NULL
			}
			cv, cerr := Coerce(t.Columns[i].Type, field)
			if cerr != nil {
				line, _ := cr.FieldPos(i)
				return fmt.Errorf("relational: csv for %s: line %d, column %s: %w", table, line, t.Columns[i].Name, cerr)
			}
			row[i] = cv
		}
		staged = append(staged, row)
	}
	for _, row := range staged {
		if err := db.Insert(table, row...); err != nil {
			return err
		}
	}
	return nil
}

// vectorsFromRows is the row-first vector build: one appendValue per
// cell, stamping and invalidating as it goes.
func vectorsFromRows(t *Table, rows []Row) []*ColumnVector {
	vs := make([]*ColumnVector, len(t.Columns))
	for i, c := range t.Columns {
		vs[i] = newColumnVector(c.Type)
	}
	for _, row := range rows {
		for i := range vs {
			vs[i].appendValue(row[i])
		}
	}
	return vs
}

// builtViews reports which views of a table are built.
func builtViews(db *Database, table string) (rows, vecs bool) {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	_, rows = db.rows[table]
	_, vecs = db.vecs[table]
	return rows, vecs
}

// viewState snapshots a table's built views by identity, without
// building either.
type viewState struct {
	rowsBuilt, vecsBuilt bool
	nrows                int
	firstRow             *Value
	vecs                 []*ColumnVector
}

func snapshotViews(db *Database, table string) viewState {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	rows, rowsBuilt := db.rows[table]
	vecs, vecsBuilt := db.vecs[table]
	st := viewState{rowsBuilt: rowsBuilt, vecsBuilt: vecsBuilt, nrows: len(rows), vecs: vecs}
	if len(rows) > 0 && len(rows[0]) > 0 {
		st.firstRow = &rows[0][0]
	}
	return st
}

func (a viewState) same(b viewState) bool {
	return a.rowsBuilt == b.rowsBuilt && a.vecsBuilt == b.vecsBuilt && a.nrows == b.nrows &&
		a.firstRow == b.firstRow && equalSlices(a.vecs, b.vecs, func(x, y *ColumnVector) bool { return x == y })
}

// sameCell compares two canonical cells exactly: floats by bit pattern
// (NaN included), times by instant, rendering and zone.
func sameCell(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y) && FormatTime(x) == FormatTime(y) && x.Location().String() == y.Location().String()
	}
	return a == b
}

func assertSameRows(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				t.Fatalf("row %d cell %d = %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// assertSameVector compares every field of two vectors: shape, the
// dictionary with its counts and codes, the lookup, the null bitmap, the
// typed payload, and the chunk stamps with their epoch.
func assertSameVector(t *testing.T, name string, got, want *ColumnVector) {
	t.Helper()
	fail := func(field string, g, w any) {
		t.Helper()
		t.Fatalf("%s: %s = %v, want %v", name, field, g, w)
	}
	if got.typ != want.typ || got.length != want.length || got.nullCount != want.nullCount {
		fail("type/len/nulls", [3]any{got.typ, got.length, got.nullCount}, [3]any{want.typ, want.length, want.nullCount})
	}
	if !equalSlices(got.nulls.words, want.nulls.words, func(a, b uint64) bool { return a == b }) {
		fail("null bitmap", got.nulls.words, want.nulls.words)
	}
	if !equalSlices(got.dict, want.dict, func(a, b string) bool { return a == b }) {
		fail("dict", got.dict, want.dict)
	}
	if !equalSlices(got.counts, want.counts, func(a, b int) bool { return a == b }) {
		fail("counts", got.counts, want.counts)
	}
	if !equalSlices(got.codes, want.codes, func(a, b int32) bool { return a == b }) {
		fail("codes", got.codes, want.codes)
	}
	if len(got.lookup) != len(want.lookup) {
		fail("lookup size", len(got.lookup), len(want.lookup))
	}
	for s, c := range want.lookup {
		if gc, ok := got.lookup[s]; !ok || gc != c {
			fail("lookup["+s+"]", gc, c)
		}
	}
	if !equalSlices(got.ints, want.ints, func(a, b int64) bool { return a == b }) {
		fail("ints", got.ints, want.ints)
	}
	if !equalSlices(got.floats, want.floats, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		fail("floats", got.floats, want.floats)
	}
	if !equalSlices(got.bools, want.bools, func(a, b bool) bool { return a == b }) {
		fail("bools", got.bools, want.bools)
	}
	if !equalSlices(got.times, want.times, func(a, b time.Time) bool { return sameCell(a, b) }) {
		fail("times", got.times, want.times)
	}
	if !equalSlices(got.chunkStamps, want.chunkStamps, func(a, b uint64) bool { return a == b }) || got.stampEpoch != want.stampEpoch {
		fail("chunk stamps/epoch", fmt.Sprint(got.chunkStamps, got.stampEpoch), fmt.Sprint(want.chunkStamps, want.stampEpoch))
	}
}

func equalSlices[T any](a, b []T, eq func(T, T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// allTypesSchema has one column per type, the fuzz target's table.
func allTypesSchema() *Schema {
	s := NewSchema("fuzz")
	s.MustAddTable(MustTable("t",
		Column{Name: "s", Type: String},
		Column{Name: "i", Type: Integer},
		Column{Name: "f", Type: Float},
		Column{Name: "b", Type: Bool},
		Column{Name: "ts", Type: Time},
	))
	return s
}

// assertLoadsAgree loads input into a column-first and an oracle
// database and compares the outcome: the error text, the untouched
// state on failure, and otherwise hash, vectors and rows, in an order
// that checks that hashing builds no rows.
func assertLoadsAgree(t *testing.T, db, oracle *Database, table, input string) {
	t.Helper()
	before, views := mustHash(t, db, table), snapshotViews(db, table)
	err := db.ReadCSV(table, strings.NewReader(input))
	werr := readCSVRows(oracle, table, strings.NewReader(input))
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("ReadCSV error %v, row path %v", err, werr)
	}
	if err != nil {
		if h := mustHash(t, db, table); h != before || !snapshotViews(db, table).same(views) {
			t.Fatalf("a failed load touched the table: hash changed %v, views %+v, before %+v", h != before, snapshotViews(db, table), views)
		}
		return
	}
	if h, w := mustHash(t, db, table), mustHash(t, oracle, table); h != w {
		t.Fatalf("ContentHash = %s, row path %s", h, w)
	}
	if rows, _ := builtViews(db, table); rows {
		t.Fatal("ReadCSV or ContentHash built the row view")
	}
	tab := db.Schema.Table(table)
	want := vectorsFromRows(tab, oracle.Rows(table))
	for i, v := range db.Vectors(table) {
		assertSameVector(t, tab.Columns[i].Name, v, want[i])
	}
	assertSameRows(t, db.Rows(table), oracle.Rows(table))
}

// FuzzReadCSV loads first and then appends second (when non-empty) to
// the same table, column-first and through the row-path oracle.
func FuzzReadCSV(f *testing.F) {
	f.Add("s,i,f,b,ts\nQueen,1,9.5,true,1975-10-31\n", "")
	f.Fuzz(func(t *testing.T, first, second string) {
		s := allTypesSchema()
		db, oracle := NewDatabase(s), NewDatabase(s)
		assertLoadsAgree(t, db, oracle, "t", first)
		if second != "" {
			assertLoadsAgree(t, db, oracle, "t", second)
		}
	})
}

// TestReadCSVChunkStamps loads past two chunk boundaries, with NULLs
// and a new dictionary entry at each, so seal's stamps meet appendValue's.
func TestReadCSVChunkStamps(t *testing.T) {
	s := NewSchema("chunks")
	s.MustAddTable(MustTable("t", Column{Name: "n", Type: Integer}, Column{Name: "s", Type: String}))
	var b strings.Builder
	b.WriteString("n,s\n")
	for i := 0; i < 2*ChunkSize+3; i++ {
		switch i % ChunkSize {
		case 0, ChunkSize - 1:
			fmt.Fprintf(&b, ",boundary %d\n", i)
		default:
			fmt.Fprintf(&b, "%d,v%d\n", i, i%5)
		}
	}
	db, oracle := NewDatabase(s), NewDatabase(s)
	assertLoadsAgree(t, db, oracle, "t", b.String())
	if v := db.Vector("t", "n"); v.Chunks() != 3 || v.ChunkStamp(0) != ChunkSize || v.ChunkStamp(2) != 2*ChunkSize+3 {
		t.Errorf("chunks %d, stamps %d/%d", v.Chunks(), v.ChunkStamp(0), v.ChunkStamp(2))
	}
}

// TestReadCSVAppendAfterMutations appends a CSV to a column-first table
// whose vectors were mutated in place (dead dictionary entries, moved
// stamps): the result is a fresh build over old and new rows.
func TestReadCSVAppendAfterMutations(t *testing.T) {
	s := allTypesSchema()
	db, oracle := NewDatabase(s), NewDatabase(s)
	const first = "s,i,f,b,ts\na,1,1.5,true,2015-03-23\nb,2,,false,\na,3,NaN,,2015-03-23 10:00:00\nc,,-0,true,\n"
	assertLoadsAgree(t, db, oracle, "t", first)
	for _, d := range []*Database{db, oracle} {
		if err := d.Update("t", 0, "s", "z"); err != nil {
			t.Fatal(err)
		}
		d.Delete("t", 1)
		d.MustInsert("t", "a", int64(4), nil, nil, nil)
	}
	assertLoadsAgree(t, db, oracle, "t", "s,i,f,b,ts\nb,5,2.5,false,2016-01-01T00:00:00+02:00\nz,,,,\n")
}

// TestColumnFirstMutationsKeepViewsAligned mutates a column-first table
// through the row API: the rows are derived on first use, and both views
// are maintained from then on, as for a row-first table.
func TestColumnFirstMutationsKeepViewsAligned(t *testing.T) {
	s := allTypesSchema()
	db, oracle := NewDatabase(s), NewDatabase(s)
	assertLoadsAgree(t, db, oracle, "t", "s,i,f,b,ts\nx,1,0.5,true,2015-03-23\ny,2,,false,\nx,,1e300,,\n")
	for _, d := range []*Database{db, oracle} {
		d.MustInsert("t", "w", int64(9), 2.5, true, nil)
		if err := d.Update("t", 1, "i", int64(7)); err != nil {
			t.Fatal(err)
		}
		d.Delete("t", 0)
	}
	if rows, vecs := builtViews(db, "t"); !rows || !vecs {
		t.Fatalf("after mutations: rows built %v, vectors built %v; want both", rows, vecs)
	}
	assertSameRows(t, db.Rows("t"), oracle.Rows("t"))
	tab := s.Table("t")
	for i, v := range db.Vectors("t") {
		w := oracle.Vectors("t")[i]
		if v.Len() != w.Len() || v.NullCount() != w.NullCount() || !equalSlices(v.SortedDistinct(), w.SortedDistinct(), func(a, b string) bool { return a == b }) {
			t.Errorf("%s: vector diverged from the row-first oracle", tab.Columns[i].Name)
		}
		for r := 0; r < v.Len(); r++ {
			if !sameCell(v.Value(r), db.Rows("t")[r][i]) {
				t.Errorf("%s row %d: vector %v, row %v", tab.Columns[i].Name, r, v.Value(r), db.Rows("t")[r][i])
			}
		}
	}
	if h, w := mustHash(t, db, "t"), mustHash(t, oracle, "t"); h != w {
		t.Errorf("ContentHash after mutations = %s, oracle %s", h, w)
	}
	cl := db.Clone()
	assertSameRows(t, cl.Rows("t"), db.Rows("t"))
	if got, want := cl.TotalRows(), db.TotalRows(); got != want {
		t.Errorf("clone TotalRows = %d, want %d", got, want)
	}
}

// TestRowFirstWriteBuildsNoVectors: writing an Insert-built table reads
// its rows and leaves the vectors unbuilt (SaveDir after generation must
// not pay for a columnar build).
func TestRowFirstWriteBuildsNoVectors(t *testing.T) {
	db := NewDatabase(allTypesSchema())
	db.MustInsert("t", "a", int64(1), 1.5, true, nil)
	if err := db.SaveDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	mustHash(t, db, "t")
	if db.NumRows("t") != 1 || db.TotalRows() != 1 {
		t.Fatalf("NumRows/TotalRows = %d/%d, want 1/1", db.NumRows("t"), db.TotalRows())
	}
	if _, vecs := builtViews(db, "t"); vecs {
		t.Error("SaveDir, ContentHash or NumRows built the vectors of a row-first table")
	}
}

// pinnedHash is the ContentHash of pinnedTable, computed by the row-path
// implementation before ingest went column-first: the durable caches of
// earlier builds stay addressable.
const pinnedHash = "58f4799f1767da7cc0ce02ab91001d8f15389d733bec229a8cc0716ddfd084da"

func pinnedTable(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(allTypesSchema())
	rows := [][]Value{
		{"Queen", int64(1), 9.5, true, time.Date(1975, 10, 31, 0, 0, 0, 0, time.UTC)},
		{"Motörhead, \"Ace\"", int64(-42), math.Copysign(0, -1), false, nil},
		{"line\nbreak", nil, math.Inf(1), nil, time.Date(2015, 3, 23, 12, 30, 0, 0, time.FixedZone("", 2*3600))},
		{"🎸 Rhapsody", int64(math.MaxInt64), math.NaN(), true, time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{nil, int64(0), 1e-300, false, nil},
		{"Queen", int64(1), 9.5, true, time.Date(1975, 10, 31, 0, 0, 0, 0, time.UTC)},
	}
	for _, r := range rows {
		db.MustInsert("t", r...)
	}
	return db
}

func TestContentHashPinned(t *testing.T) {
	db := pinnedTable(t)
	if h := mustHash(t, db, "t"); h != pinnedHash {
		t.Errorf("row-first ContentHash = %s, want the pinned %s", h, pinnedHash)
	}
	var buf strings.Builder
	if err := db.WriteCSV("t", &buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewDatabase(db.Schema)
	if err := loaded.ReadCSV("t", strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if h := mustHash(t, loaded, "t"); h != pinnedHash {
		t.Errorf("column-first ContentHash = %s, want the pinned %s", h, pinnedHash)
	}
}

// TestReadCSVAllocBound: decoding allocates nothing per row. Fields are
// cut in place in the read buffer, a string is copied only on its first
// occurrence, integers parse inline, and the typed slices are grown once
// from the size a strings.Reader reports; what remains is per load and
// per distinct value.
func TestReadCSVAllocBound(t *testing.T) {
	s := NewSchema("alloc")
	s.MustAddTable(MustTable("t",
		Column{Name: "id", Type: Integer},
		Column{Name: "name", Type: String},
	))
	const rows = 20000
	var b strings.Builder
	b.WriteString("id,name\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,artist %d\n", i%100, i%50)
	}
	input := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if err := NewDatabase(s).ReadCSV("t", strings.NewReader(input)); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 0.01 {
		t.Errorf("ReadCSV allocates %.4f times per row (%.0f in all), want <= 0.01", perRow, allocs)
	}
}

// TestColumnFirstConcurrentReads: on a freshly loaded table the first
// Rows call derives the row view, a write; concurrent readers must
// share it safely (run under -race by make verify).
func TestColumnFirstConcurrentReads(t *testing.T) {
	s := allTypesSchema()
	var b strings.Builder
	b.WriteString("s,i,f,b,ts\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "v%d,%d,%d.5,%t,2015-03-%02d\n", i%7, i, i, i%2 == 0, 1+i%28)
	}
	db := NewDatabase(s)
	if err := db.ReadCSV("t", strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				switch (g + k) % 4 {
				case 0:
					if n := len(db.Rows("t")); n != 500 {
						t.Errorf("Rows = %d, want 500", n)
					}
				case 1:
					if n := db.NumRows("t"); n != 500 {
						t.Errorf("NumRows = %d, want 500", n)
					}
				case 2:
					if v := db.Vector("t", "s"); v.Len() != 500 || len(v.Dict()) != 7 {
						t.Errorf("Vector: len %d, dict %d", v.Len(), len(v.Dict()))
					}
				default:
					if _, err := db.ContentHash("t"); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	rows := db.Rows("t")
	for i, v := range db.Vectors("t") {
		for r := range rows {
			if !sameCell(v.Value(r), rows[r][i]) {
				t.Fatalf("column %d row %d: vector %v, row %v", i, r, v.Value(r), rows[r][i])
			}
		}
	}
}
