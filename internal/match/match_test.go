package match

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"efes/internal/profile"
	"efes/internal/relational"
)

func TestCorrespondenceBasics(t *testing.T) {
	s := &Set{}
	s.Table("albums", "records").
		Attr("albums", "name", "records", "title").
		Attr("songs", "length", "tracks", "duration")

	if len(s.All) != 3 {
		t.Fatalf("len = %d", len(s.All))
	}
	if !s.All[0].IsTableLevel() || s.All[1].IsTableLevel() {
		t.Error("table-level flags wrong")
	}
	if got := s.All[1].String(); got != "albums.name -> records.title" {
		t.Errorf("String() = %q", got)
	}
	if got := s.All[0].String(); got != "albums -> records" {
		t.Errorf("String() = %q", got)
	}
	if got := len(s.AttributePairs()); got != 2 {
		t.Errorf("attribute pairs = %d", got)
	}
}

func TestTablePairsImplied(t *testing.T) {
	s := &Set{}
	s.Attr("albums", "name", "records", "title")
	s.Attr("albums", "id", "records", "id")
	s.Attr("songs", "name", "tracks", "title")
	pairs := s.TablePairs()
	if len(pairs) != 2 {
		t.Fatalf("implied table pairs = %v", pairs)
	}
	// Deterministic order by target then source.
	if pairs[0].TargetTable != "records" || pairs[1].TargetTable != "tracks" {
		t.Errorf("pair order: %v", pairs)
	}
}

func TestForTarget(t *testing.T) {
	s := &Set{}
	s.Attr("albums", "name", "records", "title")
	s.Attr("artist_credits", "artist", "records", "artist")
	s.Attr("songs", "name", "tracks", "title")
	if got := len(s.ForTarget("records")); got != 2 {
		t.Errorf("ForTarget(records) = %d", got)
	}
	if got := len(s.ForTargetColumn("records", "artist")); got != 1 {
		t.Errorf("ForTargetColumn = %d", got)
	}
	if got := len(s.ForTargetColumn("records", "genre")); got != 0 {
		t.Errorf("ForTargetColumn(genre) = %d", got)
	}
}

func TestNodeMatch(t *testing.T) {
	s := &Set{}
	s.Table("albums", "records")
	s.Attr("albums", "name", "records", "title")
	nm := s.NodeMatch()
	if nm["records"] != "albums" {
		t.Errorf("table node match = %q", nm["records"])
	}
	if nm["records.title"] != "albums.name" {
		t.Errorf("attribute node match = %q", nm["records.title"])
	}
	// Higher-confidence correspondence wins.
	s2 := &Set{}
	s2.All = append(s2.All,
		Correspondence{SourceTable: "a", SourceColumn: "x", TargetTable: "t", TargetColumn: "c", Confidence: 0.6},
		Correspondence{SourceTable: "b", SourceColumn: "y", TargetTable: "t", TargetColumn: "c", Confidence: 0.9},
	)
	if got := s2.NodeMatch()["t.c"]; got != "b.y" {
		t.Errorf("confidence tie-break = %q", got)
	}
}

func TestNameSimilarity(t *testing.T) {
	if got := nameSimilarity("artist_list", "artist_list"); got != 1 {
		t.Errorf("identical names = %v", got)
	}
	if got := nameSimilarity("ArtistList", "artist_list"); got != 1 {
		t.Errorf("case/underscore insensitive = %v", got)
	}
	if nameSimilarity("title", "name") > 0.5 {
		t.Error("unrelated names should score low")
	}
	if nameSimilarity("artist_name", "name_of_artist") < 0.5 {
		t.Error("token overlap should score high")
	}
}

func TestNameSimilarityBounds(t *testing.T) {
	f := func(a, b string) bool {
		if a == "" || b == "" {
			return true
		}
		s := nameSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	sym := func(a, b string) bool {
		if a == "" || b == "" {
			return true
		}
		return nameSimilarity(a, b) == nameSimilarity(b, a)
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("symmetry: %v", err)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"":                   "",
		"title":              "title",
		"Album_Title":        "albumtitle",
		"album-title":        "albumtitle",
		"Release Date":       "releasedate",
		"_-  A_B-C D_-":      "abcd",
		"ÉTÉ_Straße":         "étéstraße",
		"artist__credit--ID": "artistcreditid",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
	// The replaced copy (buffer and string) and the lowered copy; building
	// a Replacer on every call cost 7.
	if n := testing.AllocsPerRun(100, func() { sinkName = normalizeName("Album_Title-Release Date") }); n > 3 {
		t.Errorf("normalizeName allocates %.0f times per call, want <= 3", n)
	}
}

var sinkName string

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"title", "title", 0},
		{"name", "named", 1},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func matcherFixture() (*relational.Database, *relational.Database) {
	src := relational.NewSchema("src")
	src.MustAddTable(relational.MustTable("albums",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "name", Type: relational.String},
		relational.Column{Name: "artist_name", Type: relational.String},
	))
	tgt := relational.NewSchema("tgt")
	tgt.MustAddTable(relational.MustTable("records",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "title", Type: relational.String},
		relational.Column{Name: "artist", Type: relational.String},
	))
	sdb := relational.NewDatabase(src)
	tdb := relational.NewDatabase(tgt)
	// Shared artist values make the instance matcher link
	// artist_name -> artist despite weak name similarity.
	for i, a := range []string{"Macy Gray", "2Face Idibia", "Miri Ben-Ari", "Leona Lewis"} {
		sdb.MustInsert("albums", i, "Album "+a, a)
		tdb.MustInsert("records", i, "Record "+a, a)
	}
	return sdb, tdb
}

func TestMatcherFindsCorrespondences(t *testing.T) {
	sdb, tdb := matcherFixture()
	set := NewMatcher().Match(sdb, tdb)
	got := make(map[string]string)
	for _, c := range set.AttributePairs() {
		got[c.TargetTable+"."+c.TargetColumn] = c.SourceTable + "." + c.SourceColumn
	}
	if got["records.id"] != "albums.id" {
		t.Errorf("id match = %q (%v)", got["records.id"], set.All)
	}
	if got["records.artist"] != "albums.artist_name" {
		t.Errorf("artist match = %q (%v)", got["records.artist"], set.All)
	}
	for _, c := range set.All {
		if c.Confidence < 0.5 || c.Confidence > 1 {
			t.Errorf("confidence out of range: %v", c)
		}
	}
}

func TestMatcherOneToOne(t *testing.T) {
	sdb, tdb := matcherFixture()
	set := NewMatcher().Match(sdb, tdb)
	srcSeen := make(map[string]bool)
	tgtSeen := make(map[string]bool)
	for _, c := range set.AttributePairs() {
		sk := c.SourceTable + "." + c.SourceColumn
		tk := c.TargetTable + "." + c.TargetColumn
		if srcSeen[sk] || tgtSeen[tk] {
			t.Errorf("matcher emitted non-1:1 correspondence: %v", c)
		}
		srcSeen[sk] = true
		tgtSeen[tk] = true
	}
}

func TestMatcherDeterministic(t *testing.T) {
	sdb, tdb := matcherFixture()
	a := NewMatcher().Match(sdb, tdb)
	b := NewMatcher().Match(sdb, tdb)
	if len(a.All) != len(b.All) {
		t.Fatalf("nondeterministic match count: %d vs %d", len(a.All), len(b.All))
	}
	for i := range a.All {
		if a.All[i] != b.All[i] {
			t.Errorf("nondeterministic at %d: %v vs %v", i, a.All[i], b.All[i])
		}
	}
}

// TestSmallestIsSortedPrefix checks the heap selection against a full
// sort: for random dictionaries of distinct strings, the k smallest are
// the first k of the sorted dictionary, at k = 0, 1, len−1, len and
// len+1, and the dictionary keeps its order.
func TestSmallestIsSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 10, 257, 2000} {
		seen := make(map[string]bool)
		var dict []string
		for len(dict) < n {
			b := make([]byte, 1+rng.Intn(4))
			for i := range b {
				b[i] = "ab9Z \xc3\xa9"[rng.Intn(7)] // bytes, two above 0x7f
			}
			if s := string(b); !seen[s] {
				seen[s] = true
				dict = append(dict, s)
			}
		}
		orig := slices.Clone(dict)
		sorted := slices.Clone(dict)
		slices.Sort(sorted)
		for _, k := range []int{0, 1, n - 1, n, n + 1} {
			if k < 0 {
				continue
			}
			if got, want := smallest(dict, k), sorted[:min(k, n)]; !slices.Equal(got, want) {
				t.Errorf("n=%d k=%d: smallest = %q, want %q", n, k, got, want)
			}
			if !slices.Equal(dict, orig) {
				t.Fatalf("n=%d k=%d: smallest reordered its input", n, k)
			}
		}
	}
}

// TestMatchAndDiscoverLeaveVectorsUnchanged: the matcher and constraint
// discovery read a string column's dictionary as its own text view, so
// neither may reorder or resize it. Every vector's Dict, Codes and
// Counts are the same after a Match and a Discover of both databases.
func TestMatchAndDiscoverLeaveVectorsUnchanged(t *testing.T) {
	sdb, tdb := matcherFixture()
	type snapshot struct {
		dict   []string
		codes  []int32
		counts []int
	}
	take := func(db *relational.Database) []snapshot {
		var out []snapshot
		for _, tab := range db.Schema.Tables() {
			for _, v := range db.Vectors(tab.Name) {
				out = append(out, snapshot{slices.Clone(v.Dict()), slices.Clone(v.Codes()), slices.Clone(v.Counts())})
			}
		}
		return out
	}
	before := [2][]snapshot{take(sdb), take(tdb)}
	if slices.IsSorted(before[0][2].dict) {
		t.Fatal("fixture: albums.artist_name's dictionary is already sorted")
	}
	NewMatcher().Match(sdb, tdb)
	profile.Discover(sdb)
	profile.Discover(tdb)
	for i, db := range []*relational.Database{sdb, tdb} {
		if after := take(db); !reflect.DeepEqual(after, before[i]) {
			t.Errorf("%s: vectors changed:\nbefore %v\nafter  %v", db.Schema.Name, before[i], after)
		}
	}
}

func TestTypeCompatibility(t *testing.T) {
	if typeCompatibility(relational.Integer, relational.Integer) != 1 {
		t.Error("same type = 1")
	}
	if typeCompatibility(relational.Integer, relational.Float) != 0.8 {
		t.Error("numeric pair = 0.8")
	}
	if typeCompatibility(relational.Integer, relational.String) != 0.4 {
		t.Error("castable-to-string = 0.4")
	}
	if typeCompatibility(relational.Bool, relational.Time) != 0.1 {
		t.Error("incompatible = 0.1")
	}
}

func TestAccuracy(t *testing.T) {
	intended := &Set{}
	intended.Attr("a", "x", "t", "p").Attr("a", "y", "t", "q")

	// Perfect proposal.
	if got := Accuracy(intended, intended); got != 1 {
		t.Errorf("perfect accuracy = %v", got)
	}
	// One missing: 1 addition over 2 intended = 0.5.
	half := &Set{}
	half.Attr("a", "x", "t", "p")
	if got := Accuracy(half, intended); got != 0.5 {
		t.Errorf("half accuracy = %v", got)
	}
	// One wrong and one missing: 1 - (1+1)/2 = 0.
	wrong := &Set{}
	wrong.Attr("a", "x", "t", "p").Attr("a", "z", "t", "q")
	if got := Accuracy(wrong, intended); got != 0 {
		t.Errorf("wrong-pair accuracy = %v", got)
	}
	// Empty intended set.
	if got := Accuracy(half, &Set{}); got != 0 {
		t.Errorf("empty intended accuracy = %v", got)
	}
	// Accuracy never below 0.
	junk := &Set{}
	junk.Attr("a", "1", "t", "1").Attr("a", "2", "t", "2").Attr("a", "3", "t", "3")
	only := &Set{}
	only.Attr("b", "x", "u", "y")
	if got := Accuracy(junk, only); got != 0 {
		t.Errorf("clamped accuracy = %v", got)
	}
}

func TestDominantPattern(t *testing.T) {
	vs := []string{"4:43", "6:55", "3:26"}
	if got := dominantPattern(vs); got != "9:9" {
		t.Errorf("dominant pattern = %q", got)
	}
	mixed := []string{"4:43", "abc", "x-y", "12"}
	if got := dominantPattern(mixed); got != "" {
		t.Errorf("no dominant pattern expected, got %q", got)
	}
}

func TestCorrections(t *testing.T) {
	intended := &Set{}
	intended.Attr("a", "x", "t", "p").Attr("a", "y", "t", "q")
	proposed := &Set{}
	proposed.Attr("a", "x", "t", "p").Attr("a", "z", "t", "r")
	del, add := Corrections(proposed, intended)
	if del != 1 || add != 1 {
		t.Errorf("corrections = %d deletions, %d additions; want 1, 1", del, add)
	}
	del, add = Corrections(intended, intended)
	if del != 0 || add != 0 {
		t.Errorf("perfect proposal corrections = %d, %d", del, add)
	}
}

func TestCorrespondenceEffort(t *testing.T) {
	intended := &Set{}
	intended.Attr("a", "x", "t", "p").Attr("a", "y", "t", "q")
	proposed := &Set{}
	proposed.Attr("a", "x", "t", "p").Attr("a", "z", "t", "r")
	// 2 proposed pairs reviewed at 0.5 min + 2 corrections at 2 min.
	if got := CorrespondenceEffort(proposed, intended, 0.5, 2); got != 1+4 {
		t.Errorf("effort = %v, want 5", got)
	}
	// A perfect matcher only costs the review.
	if got := CorrespondenceEffort(intended, intended, 0.5, 2); got != 1 {
		t.Errorf("perfect effort = %v, want 1", got)
	}
}

func TestTextFormatRoundTrip(t *testing.T) {
	s := &Set{}
	s.Table("albums", "records").
		Attr("albums", "name", "records", "title").
		Attr("songs", "length", "tracks", "duration")
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.All) != len(s.All) {
		t.Fatalf("round trip: %d vs %d correspondences", len(parsed.All), len(s.All))
	}
	for i := range s.All {
		if parsed.All[i] != s.All[i] {
			t.Errorf("round trip mismatch at %d: %v vs %v", i, parsed.All[i], s.All[i])
		}
	}
}

func TestParseTextFeatures(t *testing.T) {
	text := `
# a comment line
albums -> records
albums.name -> records.title   # trailing comment

songs.length -> tracks.duration
`
	set, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.All) != 3 {
		t.Fatalf("parsed = %v", set.All)
	}
	if !set.All[0].IsTableLevel() {
		t.Error("first line should be table-level")
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"no arrow here",
		"a -> b -> c",
		"albums.name -> records", // mixed levels
		" -> records",
	}
	for _, text := range bad {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("ParseText(%q) should fail", text)
		}
	}
}

// FuzzParseText: ParseText never panics, and the rendering (WriteText)
// of a set it accepts parses back to the same rendering. Seeds in
// testdata/fuzz/FuzzParseText.
func FuzzParseText(f *testing.F) {
	render := func(t *testing.T, set *Set) string {
		var b strings.Builder
		if err := set.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, text string) {
		set, err := ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		first := render(t, set)
		again, err := ParseText(strings.NewReader(first))
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", first, text, err)
		}
		if second := render(t, again); second != first {
			t.Fatalf("rendering of %q: %q, parsed back as %q", text, first, second)
		}
	})
}

// TestParseTextLongLine: a line of any length parses, and so does its
// rendering, which is longer: WriteText puts spaces around the arrow.
func TestParseTextLongLine(t *testing.T) {
	text := strings.Repeat("x", 65532) + "->y\n"
	set, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := set.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	again, err := ParseText(strings.NewReader(b.String()))
	if err != nil || len(again.All) != 1 || again.All[0] != set.All[0] {
		t.Fatalf("rendering parsed back as %v, %v", again, err)
	}
}
