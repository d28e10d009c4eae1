package dedup

import (
	"strings"
	"testing"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/relational"
	"efes/internal/scenario"
)

// dupScenario holds two spellings of one artist in the source and the
// same artist in the target.
func dupScenario(t *testing.T) *core.Scenario {
	return artistScenario(t,
		[][]relational.Value{{1, "Macy Gray"}, {2, "macy  gray"}, {3, "Leona Lewis"}}, // the second normalizes onto the first
		[][]relational.Value{{10, "Macy Gray"}, {11, "2Face Idibia"}})                 // a cross-database duplicate
}

// artistScenario integrates a source table of artists into a target one.
func artistScenario(t *testing.T, srcRows, tgtRows [][]relational.Value) *core.Scenario {
	t.Helper()
	s := relational.NewSchema("x")
	s.MustAddTable(relational.MustTable("artists",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "name", Type: relational.String},
	))
	s.MustAddConstraint(relational.PrimaryKey{Table: "artists", Columns: []string{"id"}})
	src, tgt := relational.NewDatabase(s), relational.NewDatabase(s)
	for _, r := range srcRows {
		src.MustInsert("artists", r...)
	}
	for _, r := range tgtRows {
		tgt.MustInsert("artists", r...)
	}
	corr := &match.Set{}
	corr.Table("artists", "artists")
	corr.Attr("artists", "id", "artists", "id")
	corr.Attr("artists", "name", "artists", "name")
	scn := &core.Scenario{Name: "dup", Target: tgt,
		Sources: []*core.Source{{Name: "src", DB: src, Correspondences: corr}}}
	return scn
}

func TestDetectsCrossAndWithinDuplicates(t *testing.T) {
	scn := dupScenario(t)
	m := New()
	rep, err := m.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.(*Report)
	if len(r.Candidates) != 1 {
		t.Fatalf("candidates = %v", r.Candidates)
	}
	// Two raw spellings of "macy gray" in the source (1 within-source
	// pair) plus the same entity pre-existing in the target (1 cross
	// pair) = 2 comparisons.
	if r.Candidates[0].Pairs != 2 {
		t.Errorf("pairs = %d, want 2", r.Candidates[0].Pairs)
	}
	if r.Candidates[0].Entity != "artists" || r.Candidates[0].Attribute != "name" {
		t.Errorf("candidate = %+v", r.Candidates[0])
	}
	// The id column is a key: never an identifying dedup attribute.
	if r.EntitiesChecked != 1 {
		t.Errorf("entities checked = %d, want 1 (name only)", r.EntitiesChecked)
	}
}

func TestPlanQualityDependence(t *testing.T) {
	scn := dupScenario(t)
	m := New()
	rep, err := m.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	low, err := m.PlanTasks(rep, effort.LowEffort)
	if err != nil {
		t.Fatal(err)
	}
	if len(low) != 1 || low[0].Param("auto") != 1 {
		t.Fatalf("low-effort dedup plan should merge mechanically: %v", low)
	}
	high, err := m.PlanTasks(rep, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if len(high) != 1 || high[0].Type != TaskResolveDuplicates {
		t.Fatalf("high plan = %v", high)
	}
	calc := effort.NewCalculator(effort.DefaultSettings())
	calc.SetFunction(TaskResolveDuplicates, DefaultFunction)
	est, err := calc.Price(effort.HighQuality, high)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Total(); got != 5+0.4*2 {
		t.Errorf("effort = %v, want 5.8", got)
	}
	estLow, err := calc.Price(effort.LowEffort, low)
	if err != nil {
		t.Fatal(err)
	}
	if estLow.Total() >= est.Total() {
		t.Errorf("mechanical dedup %v must be cheaper than manual %v", estLow.Total(), est.Total())
	}
}

func TestNoDuplicatesNoTasks(t *testing.T) {
	// dupScenario without its duplicates.
	scn := artistScenario(t,
		[][]relational.Value{{1, "Macy Gray"}, {3, "Leona Lewis"}},
		[][]relational.Value{{11, "2Face Idibia"}})
	m := New()
	rep, err := m.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProblemCount() != 0 {
		t.Errorf("problems = %d, want 0", rep.ProblemCount())
	}
	tasks, err := m.PlanTasks(rep, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("tasks = %v", tasks)
	}
}

func TestIdentifyingSelection(t *testing.T) {
	s := relational.NewSchema("sel")
	s.MustAddTable(relational.MustTable("e",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "name", Type: relational.String},
		relational.Column{Name: "code", Type: relational.String},
		relational.Column{Name: "n", Type: relational.Integer},
		relational.Column{Name: "ref", Type: relational.String},
	))
	s.MustAddTable(relational.MustTable("other",
		relational.Column{Name: "key", Type: relational.String},
	))
	s.MustAddTable(relational.MustTable("link",
		relational.Column{Name: "a", Type: relational.String},
		relational.Column{Name: "b", Type: relational.String},
	))
	s.MustAddConstraint(relational.PrimaryKey{Table: "e", Columns: []string{"id"}})
	s.MustAddConstraint(relational.PrimaryKey{Table: "other", Columns: []string{"key"}})
	s.MustAddConstraint(relational.PrimaryKey{Table: "link", Columns: []string{"a", "b"}})
	s.MustAddConstraint(relational.UniqueConstraint{Table: "e", Columns: []string{"code"}})
	s.MustAddConstraint(relational.ForeignKey{Table: "e", Columns: []string{"ref"}, RefTable: "other", RefColumns: []string{"key"}})

	m := New()
	cases := []struct {
		table, column string
		want          bool
	}{
		{"e", "name", true},
		{"e", "id", false},   // key
		{"e", "code", false}, // unique
		{"e", "n", false},    // numeric
		{"e", "ref", false},  // FK column
		{"link", "a", false}, // composite-key link table
		{"nope", "x", false}, // unknown table
		{"e", "missing", false},
	}
	for _, c := range cases {
		if got := m.identifying(s, c.table, c.column); got != c.want {
			t.Errorf("identifying(%s.%s) = %v, want %v", c.table, c.column, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	if normalize("  Macy   GRAY ") != "macy gray" {
		t.Errorf("normalize = %q", normalize("  Macy   GRAY "))
	}
}

func TestOnRunningExample(t *testing.T) {
	// The running example's target records overlap with the generated
	// albums only by chance; the module must run cleanly either way.
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	m := New()
	rep, err := m.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanTasks(rep, effort.HighQuality); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Summary(), "Duplicate candidates") {
		t.Error("summary header missing")
	}
	if rep.ModuleName() != ModuleName {
		t.Error("module name")
	}
}

func TestPlanRejectsForeignReport(t *testing.T) {
	if _, err := New().PlanTasks(fakeReport{}, effort.HighQuality); err == nil {
		t.Error("foreign report must be rejected")
	}
}

type fakeReport struct{}

func (fakeReport) ModuleName() string { return "fake" }
func (fakeReport) Summary() string    { return "" }
func (fakeReport) ProblemCount() int  { return 0 }

func TestProblemSitesAndName(t *testing.T) {
	scn := dupScenario(t)
	m := New()
	if m.Name() != ModuleName {
		t.Error("module name")
	}
	rep, err := m.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	sites := rep.(*Report).ProblemSites()
	if len(sites) != 1 || sites[0].Table != "artists" || sites[0].Attribute != "name" || sites[0].Count != 2 {
		t.Errorf("sites = %+v", sites)
	}
}
