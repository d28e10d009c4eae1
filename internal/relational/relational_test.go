package relational

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema("test")
	s.MustAddTable(MustTable("artists",
		Column{Name: "id", Type: Integer},
		Column{Name: "name", Type: String},
	))
	s.MustAddTable(MustTable("albums",
		Column{Name: "id", Type: Integer},
		Column{Name: "title", Type: String},
		Column{Name: "artist", Type: Integer},
		Column{Name: "rating", Type: Float},
	))
	s.MustAddConstraint(PrimaryKey{Table: "artists", Columns: []string{"id"}})
	s.MustAddConstraint(PrimaryKey{Table: "albums", Columns: []string{"id"}})
	s.MustAddConstraint(NotNullConstraint{Table: "albums", Column: "title"})
	s.MustAddConstraint(ForeignKey{Table: "albums", Columns: []string{"artist"}, RefTable: "artists", RefColumns: []string{"id"}})
	s.MustAddConstraint(UniqueConstraint{Table: "artists", Columns: []string{"name"}})
	return s
}

func TestTypeRoundTrip(t *testing.T) {
	for _, typ := range []Type{String, Integer, Float, Bool, Time} {
		parsed, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if parsed != typ {
			t.Errorf("round trip %v -> %v", typ, parsed)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValidValue(t *testing.T) {
	cases := []struct {
		typ  Type
		v    Value
		want bool
	}{
		{String, "x", true},
		{String, int64(1), false},
		{Integer, int64(1), true},
		{Integer, 1, false}, // plain int is not canonical
		{Float, 1.5, true},
		{Bool, true, true},
		{Time, time.Now(), true},
		{Integer, nil, true}, // NULL is valid everywhere
	}
	for _, c := range cases {
		if got := ValidValue(c.typ, c.v); got != c.want {
			t.Errorf("ValidValue(%v, %#v) = %v, want %v", c.typ, c.v, got, c.want)
		}
	}
}

func TestCoerce(t *testing.T) {
	if v, err := Coerce(Integer, "42"); err != nil || v.(int64) != 42 {
		t.Errorf("Coerce(Integer, \"42\") = %v, %v", v, err)
	}
	if v, err := Coerce(Integer, 7); err != nil || v.(int64) != 7 {
		t.Errorf("Coerce(Integer, 7) = %v, %v", v, err)
	}
	if v, err := Coerce(Float, "3.5"); err != nil || v.(float64) != 3.5 {
		t.Errorf("Coerce(Float, \"3.5\") = %v, %v", v, err)
	}
	if v, err := Coerce(String, int64(9)); err != nil || v.(string) != "9" {
		t.Errorf("Coerce(String, 9) = %v, %v", v, err)
	}
	if _, err := Coerce(Integer, "4:43"); err == nil {
		t.Error("Coerce(Integer, \"4:43\") should fail")
	}
	if _, err := Coerce(Integer, 1.5); err == nil {
		t.Error("Coerce(Integer, 1.5) should fail")
	}
	if v, err := Coerce(Bool, "true"); err != nil || v.(bool) != true {
		t.Errorf("Coerce(Bool, \"true\") = %v, %v", v, err)
	}
	if v, err := Coerce(Time, "2015-03-23"); err != nil || v.(time.Time).Year() != 2015 {
		t.Errorf("Coerce(Time, date) = %v, %v", v, err)
	}
	if v, err := Coerce(Float, nil); err != nil || v != nil {
		t.Errorf("Coerce(Float, nil) = %v, %v; want nil, nil", v, err)
	}
	// Go leaves the conversion of a float outside int64 to the
	// implementation (amd64 yields MinInt64), so Coerce must refuse it.
	for _, x := range []float64{1e300, -1e300, 1 << 63, 9.3e18} {
		if v, err := Coerce(Integer, x); err == nil {
			t.Errorf("Coerce(Integer, %g) = %v, want an error", x, v)
		}
	}
	if v, err := Coerce(Integer, float64(-1<<63)); err != nil || v.(int64) != math.MinInt64 {
		t.Errorf("Coerce(Integer, -2^63) = %v, %v; want MinInt64", v, err)
	}
}

func TestCastable(t *testing.T) {
	if !Castable(String, int64(5)) {
		t.Error("integers must be castable to strings (paper Example 3.3)")
	}
	if Castable(Integer, "4:43") {
		t.Error("\"4:43\" must not be castable to integer")
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{nil, nil, 0},
		{nil, int64(1), -1},
		{int64(1), nil, 1},
		{int64(1), int64(2), -1},
		{"a", "b", -1},
		{2.5, 2.5, 0},
		{false, true, -1},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareValuesAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		return CompareValues(a, b) == -CompareValues(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return CompareValues(a, b) == -CompareValues(b, a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaConstruction(t *testing.T) {
	s := testSchema(t)
	if s.NumTables() != 2 {
		t.Fatalf("NumTables = %d, want 2", s.NumTables())
	}
	if s.NumAttributes() != 6 {
		t.Fatalf("NumAttributes = %d, want 6", s.NumAttributes())
	}
	if !s.NotNull("albums", "title") {
		t.Error("albums.title should be NOT NULL")
	}
	if !s.NotNull("albums", "id") {
		t.Error("PK column albums.id should be NOT NULL")
	}
	if s.NotNull("albums", "rating") {
		t.Error("albums.rating should be nullable")
	}
	if !s.Unique("artists", "name") {
		t.Error("artists.name should be unique")
	}
	if !s.Unique("artists", "id") {
		t.Error("PK artists.id should be unique")
	}
	if s.Unique("albums", "artist") {
		t.Error("albums.artist should not be unique")
	}
	pk, ok := s.PrimaryKeyOf("albums")
	if !ok || pk.Columns[0] != "id" {
		t.Errorf("PrimaryKeyOf(albums) = %v, %v", pk, ok)
	}
	fks := s.ForeignKeysOf("albums")
	if len(fks) != 1 || fks[0].RefTable != "artists" {
		t.Errorf("ForeignKeysOf(albums) = %v", fks)
	}
}

func TestSchemaRejectsDuplicates(t *testing.T) {
	s := NewSchema("dup")
	s.MustAddTable(MustTable("t", Column{Name: "a", Type: String}))
	if err := s.AddTable(MustTable("t", Column{Name: "b", Type: String})); err == nil {
		t.Error("duplicate table must be rejected")
	}
	if _, err := NewTable("x", Column{Name: "a", Type: String}, Column{Name: "a", Type: Integer}); err == nil {
		t.Error("duplicate column must be rejected")
	}
	if err := s.AddConstraint(NotNullConstraint{Table: "missing", Column: "a"}); err == nil {
		t.Error("constraint on missing table must be rejected")
	}
	if err := s.AddConstraint(NotNullConstraint{Table: "t", Column: "missing"}); err == nil {
		t.Error("constraint on missing column must be rejected")
	}
	if err := s.AddConstraint(ForeignKey{Table: "t", Columns: []string{"a", "a"}, RefTable: "t", RefColumns: []string{"a"}}); err == nil {
		t.Error("arity-mismatched foreign key must be rejected")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := NewDatabase(testSchema(t))
	if err := db.Insert("artists", 1, "Lynyrd Skynyrd"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := db.Insert("artists", "not-an-int", "X"); err == nil {
		t.Error("type-mismatched insert must fail")
	}
	if err := db.Insert("artists", 1); err == nil {
		t.Error("arity-mismatched insert must fail")
	}
	if err := db.Insert("nope", 1); err == nil {
		t.Error("insert into unknown table must fail")
	}
	// Values are canonicalized.
	if v := db.Rows("artists")[0][0]; v.(int64) != 1 {
		t.Errorf("stored id = %#v, want int64(1)", v)
	}
}

func TestValidateFindsAllViolationKinds(t *testing.T) {
	db := NewDatabase(testSchema(t))
	db.MustInsert("artists", 1, "A")
	db.MustInsert("artists", 1, "B")           // duplicate PK
	db.MustInsert("artists", nil, "C")         // NULL PK
	db.MustInsert("albums", 10, nil, 1, nil)   // NULL title
	db.MustInsert("albums", 11, "T", 99, nil)  // dangling FK
	db.MustInsert("albums", 12, "U", nil, nil) // NULL FK: fine

	viols := db.Validate()
	kinds := map[string]int{}
	for _, v := range viols {
		switch v.Constraint.(type) {
		case PrimaryKey:
			kinds["pk"]++
		case NotNullConstraint:
			kinds["nn"]++
		case ForeignKey:
			kinds["fk"]++
		case UniqueConstraint:
			kinds["uq"]++
		}
	}
	if kinds["pk"] != 2 { // one NULL component + one duplicate
		t.Errorf("pk violations = %d, want 2 (%v)", kinds["pk"], viols)
	}
	if kinds["nn"] != 1 {
		t.Errorf("not-null violations = %d, want 1", kinds["nn"])
	}
	if kinds["fk"] != 1 {
		t.Errorf("fk violations = %d, want 1", kinds["fk"])
	}
	if kinds["uq"] != 0 {
		t.Errorf("unique violations = %d, want 0", kinds["uq"])
	}
}

func TestUniqueIgnoresNulls(t *testing.T) {
	s := NewSchema("u")
	s.MustAddTable(MustTable("t", Column{Name: "a", Type: String}))
	s.MustAddConstraint(UniqueConstraint{Table: "t", Columns: []string{"a"}})
	db := NewDatabase(s)
	db.MustInsert("t", nil)
	db.MustInsert("t", nil)
	if v := db.Validate(); len(v) != 0 {
		t.Errorf("NULLs must not collide under UNIQUE: %v", v)
	}
}

func TestCompositeKeySafety(t *testing.T) {
	// ("ab","c") and ("a","bc") must produce different composite keys.
	k1, _ := compositeKey(Row{"ab", "c"}, []int{0, 1})
	k2, _ := compositeKey(Row{"a", "bc"}, []int{0, 1})
	if k1 == k2 {
		t.Errorf("composite keys collide: %q", k1)
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := NewDatabase(testSchema(t))
	db.MustInsert("artists", 1, "A")
	h := mustHash(t, db, "artists")
	cp := db.Clone()
	cp.MustInsert("artists", 2, "mutated")
	if db.NumRows("artists") != 1 || db.Rows("artists")[0][1].(string) != "A" || mustHash(t, db, "artists") != h {
		t.Error("clone shares storage with original")
	}
	if rows := cp.Rows("artists"); len(rows) != 2 || rows[0][1].(string) != "A" || rows[1][1].(string) != "mutated" {
		t.Errorf("clone rows = %v", rows)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := NewDatabase(testSchema(t))
	db.MustInsert("albums", 1, "Sweet, \"Home\"", 1, 4.5)
	db.MustInsert("albums", 2, "Line\nBreak", nil, nil)
	var buf bytes.Buffer
	if err := db.WriteCSV("albums", &buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase(db.Schema)
	if err := db2.ReadCSV("albums", &buf); err != nil {
		t.Fatal(err)
	}
	if db2.NumRows("albums") != 2 {
		t.Fatalf("rows = %d", db2.NumRows("albums"))
	}
	r := db2.Rows("albums")[0]
	if r[1].(string) != "Sweet, \"Home\"" || r[3].(float64) != 4.5 {
		t.Errorf("row 0 = %v", r)
	}
	if db2.Rows("albums")[1][2] != nil {
		t.Error("empty field should load as NULL")
	}
}

// TestCSVRoundTripProperty: an Insert-built table of all five types and
// its WriteCSV→ReadCSV round trip have equal vectors and equal content
// hashes. The empty string needs no normalization: Insert stores it as
// NULL, as the round trip reads it back. Times are generated at whole
// seconds, because RFC3339 carries no fraction of a second.
func TestCSVRoundTripProperty(t *testing.T) {
	s := allTypesSchema()
	f := func(strs []string, ints []int64, floats []float64, bools []bool, secs []int64, nullMask []uint8) bool {
		db := NewDatabase(s)
		n := min(len(strs), len(ints), len(floats), len(bools), len(secs))
		for i := 0; i < n; i++ {
			row := Row{strs[i], ints[i], floats[i], bools[i], time.Unix(secs[i]%1e10, 0).UTC()}
			for j := range row {
				if i < len(nullMask) && nullMask[i]>>j&1 == 1 {
					row[j] = nil
				}
			}
			db.MustInsert("t", row...)
		}
		var buf bytes.Buffer
		if err := db.WriteCSV("t", &buf); err != nil {
			t.Fatal(err)
		}
		db2 := NewDatabase(s)
		if err := db2.ReadCSV("t", &buf); err != nil {
			t.Fatal(err)
		}
		for i, v := range db.Vectors("t") {
			assertSameVector(t, s.Table("t").Columns[i].Name, db2.Vectors("t")[i], v)
		}
		return mustHash(t, db, "t") == mustHash(t, db2, "t")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSchemaTextRoundTrip(t *testing.T) {
	s := testSchema(t)
	text := s.String()
	parsed, err := ParseSchemaText(text)
	if err != nil {
		t.Fatalf("ParseSchemaText: %v\n%s", err, text)
	}
	if parsed.String() != text {
		t.Errorf("schema text round trip mismatch:\n--- original\n%s\n--- parsed\n%s", text, parsed.String())
	}
}

func TestParseSchemaTextErrors(t *testing.T) {
	bad := []string{
		"",
		"table t(a text)", // table before schema
		"schema s\n  table t(a blob)",
		"schema s\n  PRIMARY KEY (t.a)", // constraint on missing table
		"schema s\n  gibberish here",
	}
	for _, text := range bad {
		if _, err := ParseSchemaText(text); err == nil {
			t.Errorf("ParseSchemaText(%q) should fail", text)
		}
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase(testSchema(t))
	db.MustInsert("artists", 1, "A")
	db.MustInsert("albums", 1, "T", 1, 3.25)
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase(db.Schema)
	if err := db2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if db2.NumRows("artists") != 1 || db2.NumRows("albums") != 1 {
		t.Errorf("loaded rows: artists=%d albums=%d", db2.NumRows("artists"), db2.NumRows("albums"))
	}
	if got := db2.Rows("albums")[0][3].(float64); math.Abs(got-3.25) > 1e-12 {
		t.Errorf("rating = %v", got)
	}
}

// TestSaveLoadDirKeepsLoneEmptyCells: in a one-column table a NULL row
// is a lone empty field, which WriteCSV quotes, so that LoadDir does not
// skip it as a blank line.
func TestSaveLoadDirKeepsLoneEmptyCells(t *testing.T) {
	s := NewSchema("lone")
	s.MustAddTable(MustTable("strs", Column{Name: "s", Type: String}))
	s.MustAddTable(MustTable("ints", Column{Name: "n", Type: Integer}))
	db := NewDatabase(s)
	for _, v := range []Value{nil, "x", nil} {
		db.MustInsert("strs", v)
	}
	for _, v := range []Value{int64(1), nil} {
		db.MustInsert("ints", v)
	}
	var buf strings.Builder
	if err := db.WriteCSV("strs", &buf); err != nil {
		t.Fatal(err)
	}
	if want := "s\n\"\"\nx\n\"\"\n"; buf.String() != want {
		t.Errorf("WriteCSV = %q, want %q", buf.String(), want)
	}
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded := NewDatabase(s)
	if err := loaded.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"strs", "ints"} {
		want, got := db.Rows(table), loaded.Rows(table)
		if len(got) != len(want) {
			t.Fatalf("%s: loaded %d rows, want %d", table, len(got), len(want))
		}
		for i := range want {
			if (got[i][0] == nil) != (want[i][0] == nil) || CompareValues(got[i][0], want[i][0]) != 0 {
				t.Errorf("%s row %d = %v, want %v", table, i, got[i][0], want[i][0])
			}
		}
		if h, w := mustHash(t, loaded, table), mustHash(t, db, table); h != w {
			t.Errorf("%s: ContentHash %s after the round trip, want %s", table, h, w)
		}
	}
}

func TestFormatValue(t *testing.T) {
	if FormatValue(nil) != "" {
		t.Error("NULL should format as empty string")
	}
	if got := FormatValue(int64(42)); got != "42" {
		t.Errorf("FormatValue(42) = %q", got)
	}
	if got := FormatValue(1.5); got != "1.5" {
		t.Errorf("FormatValue(1.5) = %q", got)
	}
	if !strings.Contains(FormatValue(time.Date(2015, 3, 23, 0, 0, 0, 0, time.UTC)), "2015-03-23") {
		t.Error("time formatting")
	}
}

func TestAccessorsAndMisc(t *testing.T) {
	s := testSchema(t)
	db := NewDatabase(s)
	db.MustInsert("artists", 1, "A")
	db.MustInsert("albums", 1, "T", 1, nil)

	if got := db.TotalRows(); got != 2 {
		t.Errorf("TotalRows = %d", got)
	}
	if vs := db.MustColumn("artists", "name"); len(vs) != 1 || vs[0].(string) != "A" {
		t.Errorf("MustColumn = %v", vs)
	}
	for _, c := range s.Constraints {
		if c.TableName() == "" {
			t.Errorf("constraint %v has empty table name", c)
		}
	}
	if col, ok := s.Table("albums").Column("title"); !ok || col.Type != String {
		t.Errorf("Column lookup = %v, %v", col, ok)
	}
	if _, ok := s.Table("albums").Column("nope"); ok {
		t.Error("missing column lookup should fail")
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "artists" {
		t.Errorf("TableNames = %v", names)
	}
	if got := len(s.ConstraintsFor("albums")); got != 3 { // PK, NN title, FK
		t.Errorf("ConstraintsFor(albums) = %d", got)
	}
	text := s.String()
	for _, want := range []string{"schema test", "table artists", "PRIMARY KEY (albums.id)", "FOREIGN KEY"} {
		if !strings.Contains(text, want) {
			t.Errorf("schema rendering missing %q", want)
		}
	}
}

func TestMustPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	db := NewDatabase(testSchema(t))
	mustPanic("MustInsert", func() { db.MustInsert("nope", 1) })
	mustPanic("MustTable", func() { MustTable("t", Column{Name: "a"}, Column{Name: "a"}) })
	mustPanic("MustColumn", func() { db.MustColumn("nope", "x") })
	s := NewSchema("p")
	s.MustAddTable(MustTable("t", Column{Name: "a", Type: String}))
	mustPanic("MustAddTable", func() { s.MustAddTable(MustTable("t", Column{Name: "b", Type: String})) })
	mustPanic("MustAddConstraint", func() { s.MustAddConstraint(NotNullConstraint{Table: "zz", Column: "a"}) })
}

func TestSaveDirErrors(t *testing.T) {
	db := NewDatabase(testSchema(t))
	// Saving into a path that is a file must fail.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(filepath.Join(blocker, "sub")); err == nil {
		t.Error("SaveDir into a file path must fail")
	}
	// Loading a malformed CSV must fail.
	good := filepath.Join(dir, "db")
	if err := db.SaveDir(good); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(good, "artists.csv"), []byte("wrong,header\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase(db.Schema)
	if err := db2.LoadDir(good); err == nil {
		t.Error("LoadDir with a mismatched header must fail")
	}
}

// FuzzParseSchemaText: ParseSchemaText never panics, and the rendering
// (Schema.String) of a schema it accepts parses back to the same
// rendering. Seeds in testdata/fuzz/FuzzParseSchemaText.
func FuzzParseSchemaText(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchemaText(text)
		if err != nil {
			return
		}
		again, err := ParseSchemaText(s.String())
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", s.String(), text, err)
		}
		if again.String() != s.String() {
			t.Fatalf("rendering of %q: %q, parsed back as %q", text, s.String(), again.String())
		}
	})
}
