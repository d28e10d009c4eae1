package scenario

import (
	"testing"

	"efes/internal/core"
	"efes/internal/relational"
)

func TestMusicExampleValid(t *testing.T) {
	for _, cfg := range []ExampleConfig{SmallExampleConfig(), PaperExampleConfig()} {
		if testing.Short() && cfg.Songs > 10000 {
			continue
		}
		scn := MusicExample(cfg)
		if err := scn.Validate(); err != nil {
			t.Fatalf("scenario invalid: %v", err)
		}
		for _, src := range scn.Sources {
			if v := src.DB.Validate(); len(v) != 0 {
				t.Fatalf("source instance violates its own schema: %v", v[:min(3, len(v))])
			}
		}
		if v := scn.Target.Validate(); len(v) != 0 {
			t.Fatalf("target instance violates its own schema: %v", v[:min(3, len(v))])
		}
	}
}

func TestMusicExampleShape(t *testing.T) {
	cfg := SmallExampleConfig()
	scn := MusicExample(cfg)
	src := scn.Sources[0].DB
	if got := src.NumRows("albums"); got != cfg.Albums {
		t.Errorf("albums = %d, want %d", got, cfg.Albums)
	}
	if got := src.NumRows("songs"); got != cfg.Songs {
		t.Errorf("songs = %d, want %d", got, cfg.Songs)
	}
	lengths, _ := src.Vector("songs", "length").Coerced(relational.String)
	if got := len(lengths.Dict()); got != cfg.DistinctLengths {
		t.Errorf("distinct lengths = %d, want %d", got, cfg.DistinctLengths)
	}
	// Albums with zero credited artists: those whose artist list joins
	// no credit (NULLs never join).
	credits := make(map[relational.Value]bool)
	for _, v := range src.MustColumn("artist_credits", "artist_list") {
		credits[v] = v != nil
	}
	noArtist := 0
	for _, v := range src.MustColumn("albums", "artist_list") {
		if !credits[v] {
			noArtist++
		}
	}
	if noArtist != cfg.AlbumsNoArtist {
		t.Errorf("albums without artists = %d, want %d", noArtist, cfg.AlbumsNoArtist)
	}
}

func TestMusicExampleDeterministic(t *testing.T) {
	a := MusicExample(SmallExampleConfig())
	b := MusicExample(SmallExampleConfig())
	ra := a.Sources[0].DB.Rows("albums")
	rb := b.Sources[0].DB.Rows("albums")
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic row counts")
	}
	for i := range ra {
		for j := range ra[i] {
			if relational.CompareValues(ra[i][j], rb[i][j]) != 0 {
				t.Fatalf("nondeterministic value at row %d col %d", i, j)
			}
		}
	}
}

func TestSchemaSpecBuild(t *testing.T) {
	for name, v := range bibVariants() {
		s := v.Spec.Build()
		if s.Name != name {
			t.Errorf("schema name = %q, want %q", s.Name, name)
		}
		if s.NumTables() == 0 {
			t.Errorf("%s has no tables", name)
		}
	}
	// Published shape: s1 is the largest, s3 the flattest.
	if got := BibliographicS1().Build().NumTables(); got != 13 {
		t.Errorf("s1 tables = %d, want 13", got)
	}
	if got := BibliographicS3().Build().NumTables(); got != 5 {
		t.Errorf("s3 tables = %d, want 5", got)
	}
	if got := MusicF().Build().NumTables(); got != 2 {
		t.Errorf("f tables = %d, want 2", got)
	}
	if got := MusicM().Build().NumTables(); got != 14 {
		t.Errorf("m tables = %d, want 14", got)
	}
}

func TestAllBibliographicInstancesValid(t *testing.T) {
	for name, v := range bibVariants() {
		db := relational.NewDatabase(v.Spec.Build())
		v.Populate(db, 42)
		if viols := db.Validate(); len(viols) != 0 {
			t.Errorf("%s instance invalid: %v", name, viols[:min(3, len(viols))])
		}
		if db.TotalRows() == 0 {
			t.Errorf("%s instance empty", name)
		}
	}
}

func TestAllMusicInstancesValid(t *testing.T) {
	for name, v := range musicVariants() {
		db := relational.NewDatabase(v.Spec.Build())
		v.Populate(db, 42)
		if viols := db.Validate(); len(viols) != 0 {
			t.Errorf("%s instance invalid: %v", name, viols[:min(3, len(viols))])
		}
		if db.TotalRows() == 0 {
			t.Errorf("%s instance empty", name)
		}
	}
}

func TestCorrespondByConcept(t *testing.T) {
	set := Correspond(BibliographicS1(), BibliographicS2())
	// Title concept must map articles.title -> publication.title.
	foundTitle, foundName := false, false
	for _, c := range set.AttributePairs() {
		if c.SourceTable == "articles" && c.SourceColumn == "title" &&
			c.TargetTable == "publication" && c.TargetColumn == "title" {
			foundTitle = true
		}
		if c.SourceTable == "authors" && c.SourceColumn == "name" &&
			c.TargetTable == "person" && c.TargetColumn == "full_name" {
			foundName = true
		}
	}
	if !foundTitle || !foundName {
		t.Errorf("expected concept correspondences missing: %v", set.All)
	}
	// 1:1 per target element.
	seen := make(map[string]bool)
	for _, c := range set.AttributePairs() {
		key := c.TargetTable + "." + c.TargetColumn
		if seen[key] {
			t.Errorf("duplicate correspondence into %s", key)
		}
		seen[key] = true
	}
}

func TestCorrespondIdentity(t *testing.T) {
	spec := BibliographicS4()
	set := Correspond(spec, spec)
	// Every concept-tagged column must map onto itself.
	for _, c := range set.AttributePairs() {
		if c.SourceTable != c.TargetTable || c.SourceColumn != c.TargetColumn {
			t.Errorf("identity correspondence maps %s", c)
		}
	}
	tagged := 0
	for _, ts := range spec.Tables {
		for _, cs := range ts.Columns {
			if cs.Concept != "" {
				tagged++
			}
		}
	}
	if got := len(set.AttributePairs()); got != tagged {
		t.Errorf("identity correspondences = %d, want %d", got, tagged)
	}
}

func TestBibliographicScenarios(t *testing.T) {
	for _, pair := range [][2]string{{"s1", "s2"}, {"s1", "s3"}, {"s3", "s4"}, {"s4", "s4"}} {
		scn, err := BibliographicScenario(pair[0], pair[1], 1)
		if err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		if err := scn.Validate(); err != nil {
			t.Errorf("%v: %v", pair, err)
		}
		if len(scn.Sources[0].Correspondences.All) == 0 {
			t.Errorf("%v: no correspondences", pair)
		}
	}
	if _, err := BibliographicScenario("s9", "s1", 1); err == nil {
		t.Error("unknown variant must fail")
	}
}

func TestMusicScenarios(t *testing.T) {
	for _, pair := range [][2]string{{"f1", "m2"}, {"m1", "d2"}, {"m1", "f2"}, {"d1", "d2"}} {
		scn, err := MusicScenario(pair[0], pair[1], 1)
		if err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		if err := scn.Validate(); err != nil {
			t.Errorf("%v: %v", pair, err)
		}
	}
	if _, err := MusicScenario("x1", "d2", 1); err == nil {
		t.Error("unknown variant must fail")
	}
	if _, err := MusicScenario("f", "d2", 1); err == nil {
		t.Error("missing instance number must fail")
	}
}

func TestIdenticalSchemaPairsDifferentInstances(t *testing.T) {
	scn := MustMusicScenario("d1", "d2", 1)
	src := scn.Sources[0].DB
	tgt := scn.Target
	if src.NumRows("releases") == 0 || tgt.NumRows("releases") == 0 {
		t.Fatal("instances empty")
	}
	// Same schema, different data.
	if src.Schema.String() != tgt.Schema.String() {
		t.Error("d1-d2 should share the schema")
	}
	a := src.Rows("releases")[0]
	b := tgt.Rows("releases")[0]
	same := true
	for i := range a {
		if relational.CompareValues(a[i], b[i]) != 0 {
			same = false
		}
	}
	if same {
		t.Error("d1 and d2 instances should differ")
	}
}

func TestScenarioValidateErrors(t *testing.T) {
	scn := &core.Scenario{Name: "broken"}
	if err := scn.Validate(); err == nil {
		t.Error("missing target must fail")
	}
	scn = MustMusicScenario("d1", "d2", 1)
	scn.Sources[0].Correspondences.Attr("nonexistent", "x", "releases", "title")
	if err := scn.Validate(); err == nil {
		t.Error("correspondence to unknown source table must fail")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
