package profile

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"efes/internal/relational"
)

func strValues(ss ...string) []relational.Value {
	out := make([]relational.Value, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func TestPattern(t *testing.T) {
	cases := []struct{ in, want string }{
		{"4:43", "9:9"},
		{"6:55", "9:9"},
		{"215900", "9"},
		{"Sweet Home Alabama", "a a a"},
		{"a1", "a9"},
		{"", ""},
		{"  ", " "},
		{"12-34-56", "9-9-9"},
		{"(555) 123", "(9) 9"},
		{"Ünïcödé", "a"},
	}
	for _, c := range cases {
		if got := Pattern(c.in); got != c.want {
			t.Errorf("Pattern(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// referencePattern is Pattern as first written: unicode classification
// of every rune, built with a strings.Builder. FuzzPattern holds Pattern
// and its reusable-buffer form, appendPattern, to it.
func referencePattern(s string) string {
	var b strings.Builder
	var last rune
	for _, r := range s {
		var c rune
		switch {
		case unicode.IsDigit(r):
			c = '9'
		case unicode.IsLetter(r):
			c = 'a'
		case unicode.IsSpace(r):
			c = ' '
		default:
			c = r
		}
		if (c == '9' || c == 'a' || c == ' ') && c == last {
			continue
		}
		b.WriteRune(c)
		last = c
	}
	return b.String()
}

// FuzzPattern compares Pattern with referencePattern on arbitrary
// strings, invalid UTF-8 included, and checks that appendPattern appends
// the same bytes after a prefix. The seed corpus is in
// testdata/fuzz/FuzzPattern.
func FuzzPattern(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want := referencePattern(s)
		if got := Pattern(s); got != want {
			t.Fatalf("Pattern(%q) = %q, want %q", s, got, want)
		}
		if got := appendPattern([]byte("x"), s); string(got) != "x"+want {
			t.Fatalf("appendPattern(\"x\", %q) = %q, want %q", s, got, "x"+want)
		}
	})
}

func TestFillAndNulls(t *testing.T) {
	vs := []relational.Value{"a", nil, "b", nil}
	cs := Values("t", "c", relational.String, vs)
	if cs.Rows != 4 || cs.Nulls != 2 {
		t.Fatalf("rows=%d nulls=%d", cs.Rows, cs.Nulls)
	}
	if cs.Fill != 0.5 {
		t.Errorf("fill = %v, want 0.5", cs.Fill)
	}
	if cs.Distinct != 2 {
		t.Errorf("distinct = %d, want 2", cs.Distinct)
	}
}

func TestConstancyExtremes(t *testing.T) {
	constant := Values("t", "c", relational.String, strValues("x", "x", "x", "x"))
	if constant.Constancy != 1 {
		t.Errorf("constant column constancy = %v, want 1", constant.Constancy)
	}
	allDistinct := Values("t", "c", relational.String, strValues("a", "b", "c", "d"))
	if allDistinct.Constancy != 0 {
		t.Errorf("all-distinct constancy = %v, want 0", allDistinct.Constancy)
	}
	empty := Values("t", "c", relational.String, nil)
	if empty.Constancy != 1 {
		t.Errorf("empty column constancy = %v, want 1", empty.Constancy)
	}
	skewed := Values("t", "c", relational.String, strValues("a", "a", "a", "a", "a", "a", "b"))
	if skewed.Constancy <= 0 || skewed.Constancy >= 1 {
		t.Errorf("skewed constancy = %v, want in (0,1)", skewed.Constancy)
	}
}

func TestConstancyBounds(t *testing.T) {
	f := func(vals []uint8) bool {
		vs := make([]relational.Value, len(vals))
		for i, v := range vals {
			vs[i] = int64(v % 8)
		}
		c := Values("t", "c", relational.Integer, vs).Constancy
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternsCollected(t *testing.T) {
	cs := Values("t", "duration", relational.String, strValues("4:43", "6:55", "3:26", "12:01"))
	if len(cs.Patterns) != 1 || cs.Patterns[0].Value != "9:9" || cs.Patterns[0].Count != 4 {
		t.Errorf("patterns = %v", cs.Patterns)
	}
	if cs.StringLength.Mean < 4 || cs.StringLength.Mean > 5 {
		t.Errorf("mean length = %v", cs.StringLength.Mean)
	}
}

func TestPatternCountInvariant(t *testing.T) {
	f := func(ss []string) bool {
		vs := make([]relational.Value, len(ss))
		for i, s := range ss {
			vs[i] = s
		}
		cs := Values("t", "c", relational.String, vs)
		// Number of distinct patterns cannot exceed number of distinct values.
		return len(cs.Patterns) <= maxInt(cs.Distinct, 1) || len(ss) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestCharHistogramSumsToOne(t *testing.T) {
	cs := Values("t", "c", relational.String, strValues("ab", "ba", "cc"))
	sum := 0.0
	for _, f := range cs.CharHist {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("char histogram sums to %v", sum)
	}
	if math.Abs(cs.CharHist['a']-1.0/3) > 1e-9 {
		t.Errorf("freq(a) = %v", cs.CharHist['a'])
	}
}

func TestNumericStats(t *testing.T) {
	vs := []relational.Value{int64(10), int64(20), int64(30), nil}
	cs := Values("t", "n", relational.Integer, vs)
	if !cs.HasNumeric {
		t.Fatal("HasNumeric should be true")
	}
	if cs.Mean.Mean != 20 {
		t.Errorf("mean = %v", cs.Mean.Mean)
	}
	if cs.Min != 10 || cs.Max != 30 {
		t.Errorf("range = [%v,%v]", cs.Min, cs.Max)
	}
	total := 0
	for _, b := range cs.NumHist.Buckets {
		total += b
	}
	if total != 3 {
		t.Errorf("histogram total = %d, want 3", total)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	cs := Values("t", "n", relational.Integer, []relational.Value{int64(5), int64(5)})
	if cs.NumHist.Buckets[0] != 2 {
		t.Errorf("degenerate histogram = %v", cs.NumHist.Buckets)
	}
}

func TestTopK(t *testing.T) {
	var vs []relational.Value
	for i := 0; i < 20; i++ {
		vs = append(vs, "common")
	}
	vs = append(vs, "rare1", "rare2")
	cs := Values("t", "c", relational.String, vs)
	if cs.TopK[0].Value != "common" || cs.TopK[0].Count != 20 {
		t.Errorf("topK = %v", cs.TopK)
	}
	if cs.TopKCoverage != 1 {
		t.Errorf("coverage = %v, want 1 (only 3 distinct values)", cs.TopKCoverage)
	}
	// With more than TopKSize distinct values, coverage < 1.
	vs = nil
	for i := 0; i < 2*TopKSize; i++ {
		vs = append(vs, string(rune('a'+i)))
	}
	cs = Values("t", "c", relational.String, vs)
	if len(cs.TopK) != TopKSize {
		t.Errorf("topK size = %d", len(cs.TopK))
	}
	if cs.TopKCoverage != 0.5 {
		t.Errorf("coverage = %v, want 0.5", cs.TopKCoverage)
	}
}

func TestColumnFromDatabase(t *testing.T) {
	s := relational.NewSchema("x")
	s.MustAddTable(relational.MustTable("songs",
		relational.Column{Name: "name", Type: relational.String},
		relational.Column{Name: "length", Type: relational.Integer},
	))
	db := relational.NewDatabase(s)
	db.MustInsert("songs", "Hands Up", 215900)
	db.MustInsert("songs", "Labor Day", 238100)
	cs, err := Column(db, "songs", "length")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Mean.Mean != 227000 {
		t.Errorf("mean = %v", cs.Mean.Mean)
	}
	if _, err := Column(db, "songs", "bogus"); err == nil {
		t.Error("unknown column must fail")
	}
}

func discoveryFixture() *relational.Database {
	s := relational.NewSchema("d")
	s.MustAddTable(relational.MustTable("artists",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "name", Type: relational.String},
	))
	s.MustAddTable(relational.MustTable("albums",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "artist_id", Type: relational.Integer},
		relational.Column{Name: "note", Type: relational.String},
	))
	db := relational.NewDatabase(s)
	db.MustInsert("artists", 1, "A")
	db.MustInsert("artists", 2, "B")
	db.MustInsert("artists", 3, "C")
	db.MustInsert("albums", 10, 1, nil)
	db.MustInsert("albums", 11, 1, "x")
	db.MustInsert("albums", 12, 3, "y")
	return db
}

func TestDiscoverKeysAndInclusions(t *testing.T) {
	db := discoveryFixture()
	d := Discover(db)

	pk, ok := d.PrimaryKeys["artists"]
	if !ok || pk.Column != "id" {
		t.Errorf("artists PK = %v, %v", pk, ok)
	}
	pk, ok = d.PrimaryKeys["albums"]
	if !ok || pk.Column != "id" {
		t.Errorf("albums PK = %v, %v", pk, ok)
	}

	foundFK := false
	for _, inc := range d.Inclusions {
		if inc.Dependent.String() == "albums.artist_id" && inc.Referenced.String() == "artists.id" {
			foundFK = true
		}
	}
	if !foundFK {
		t.Errorf("inclusion albums.artist_id ⊆ artists.id not found: %v", d.Inclusions)
	}

	// note has NULLs: must not be not-null.
	for _, ref := range d.NotNull {
		if ref.String() == "albums.note" {
			t.Error("albums.note wrongly discovered NOT NULL")
		}
	}
}

func TestAugmentSchema(t *testing.T) {
	db := discoveryFixture()
	d := Discover(db)
	added := AugmentSchema(db, d)
	if added == 0 {
		t.Fatal("expected constraints to be added")
	}
	s := db.Schema
	if _, ok := s.PrimaryKeyOf("artists"); !ok {
		t.Error("artists PK not added")
	}
	fks := s.ForeignKeysOf("albums")
	foundFK := false
	for _, fk := range fks {
		if fk.Columns[0] == "artist_id" && fk.RefTable == "artists" {
			foundFK = true
		}
	}
	if !foundFK {
		t.Errorf("FK albums.artist_id -> artists.id not added: %v", fks)
	}
	// Idempotence: running again adds nothing.
	if again := AugmentSchema(db, Discover(db)); again != 0 {
		t.Errorf("second augmentation added %d constraints", again)
	}
	// The instance must be valid under the augmented schema.
	if v := db.Validate(); len(v) != 0 {
		t.Errorf("augmented schema introduces violations: %v", v)
	}
}

func TestDiscoverSkipsEmptyTables(t *testing.T) {
	s := relational.NewSchema("e")
	s.MustAddTable(relational.MustTable("empty", relational.Column{Name: "id", Type: relational.Integer}))
	db := relational.NewDatabase(s)
	d := Discover(db)
	if len(d.Unique) != 0 || len(d.NotNull) != 0 || len(d.PrimaryKeys) != 0 {
		t.Errorf("discovery on empty table should find nothing: %+v", d)
	}
}

func TestDistOf(t *testing.T) {
	d := distOf([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if d.Mean != 5 {
		t.Errorf("mean = %v", d.Mean)
	}
	if math.Abs(d.StdDev-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", d.StdDev)
	}
	if z := distOf([]float64(nil)); z.Mean != 0 || z.StdDev != 0 {
		t.Errorf("distOf(nil) = %v", z)
	}
}

func TestTableStem(t *testing.T) {
	cases := map[string]string{
		"artists":  "artist",
		"releases": "release",
		"boxes":    "boxe", // one-suffix stemming only
		"labels":   "label",
		"pubs":     "pub",
		"s1":       "s1", // too short after trimming: keep the original
	}
	for in, want := range cases {
		if got := tableStem(in); got != want {
			t.Errorf("tableStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMustColumnPanics(t *testing.T) {
	s := relational.NewSchema("x")
	s.MustAddTable(relational.MustTable("t", relational.Column{Name: "a", Type: relational.String}))
	db := relational.NewDatabase(s)
	defer func() {
		if recover() == nil {
			t.Error("MustColumn on a missing column should panic")
		}
	}()
	MustColumn(db, "t", "missing")
}
