// Package baseline implements the attribute-counting effort estimator of
// Harden [14] that the paper's §6 compares against: a project is priced by
// the number of source attributes, each multiplied by a weighted set of
// ETL tasks (Table 1, slightly more than 8 hours of work per attribute).
// The model is calibratable with a single scale factor, as the paper's
// cross-validation trains both models per domain.
package baseline

import (
	"fmt"
	"strings"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// Table1Task is one row of the paper's Table 1: an ETL sub-task with its
// hours-per-attribute weight.
type Table1Task struct {
	// Name is the sub-task.
	Name string
	// HoursPerAttribute is its weight.
	HoursPerAttribute float64
}

// Table1 is the task catalog of Harden [14] as reprinted in the paper.
// The weights sum to 8.05 hours per source attribute.
func Table1() []Table1Task {
	return []Table1Task{
		{"Requirements and Mapping", 2.0},
		{"High Level Design", 0.1},
		{"Technical Design", 0.5},
		{"Data Modeling", 1.0},
		{"Development and Unit Testing", 1.0},
		{"System Test", 0.5},
		{"User Acceptance Testing", 0.25},
		{"Production Support", 0.2},
		{"Tech Lead Support", 0.5},
		{"Project Management Support", 0.5},
		{"Product Owner Support", 0.5},
		{"Subject Matter Expert", 0.5},
		{"Data Steward Support", 0.5},
	}
}

// HoursPerAttribute is the Table-1 total: "slightly more than 8 hours of
// work for each source attribute".
func HoursPerAttribute() float64 {
	sum := 0.0
	for _, t := range Table1() {
		sum += t.HoursPerAttribute
	}
	return sum
}

// mappingShare is the fraction of the Table-1 weights attributed to
// mapping-like work (Requirements and Mapping, designs, data modeling);
// the remainder is cleaning/testing-like work. The paper notes the
// baseline "also distinguishes between mapping and cleaning efforts, but
// relates them neither to integration problems nor actual tasks".
func mappingShare() float64 {
	mapping := map[string]bool{
		"Requirements and Mapping": true,
		"High Level Design":        true,
		"Technical Design":         true,
		"Data Modeling":            true,
	}
	m := 0.0
	for _, t := range Table1() {
		if mapping[t.Name] {
			m += t.HoursPerAttribute
		}
	}
	return m / HoursPerAttribute()
}

// Counting is the attribute-counting estimator.
type Counting struct {
	// Scale calibrates the per-attribute effort; 1 is the published
	// Table-1 weighting.
	Scale float64
}

// databaseFraction restricts the estimate to the database-related share
// of the ETL project, since EFES and the measured ground truth cover only
// the database-related steps (§1: "we focus on exploring the
// database-related steps"). Harden's full catalog also prices project
// management, deployment, and support; the fraction covers
// requirements/mapping, development, and testing.
const databaseFraction = 0.55

// New creates the baseline with the published weights.
func New() *Counting {
	return &Counting{Scale: 1}
}

// SourceAttributes counts the attributes over all source databases of the
// scenario — the baseline's only input signal.
func SourceAttributes(s *core.Scenario) int {
	n := 0
	for _, src := range s.Sources {
		n += src.DB.Schema.NumAttributes()
	}
	return n
}

// Estimate prices the scenario: minutes = attributes × 8.05h × 60 ×
// databaseFraction × Scale. The expected quality does not change the
// baseline's view of the work (one of its shortcomings the paper
// highlights); it is recorded for reporting only.
func (c *Counting) Estimate(s *core.Scenario, q effort.Quality) *effort.Estimate {
	attrs := float64(SourceAttributes(s))
	total := attrs * HoursPerAttribute() * 60 * databaseFraction * c.Scale
	mapping := total * mappingShare()
	cleaning := total - mapping
	return &effort.Estimate{
		Quality: q,
		Tasks: []effort.TaskEffort{
			{
				Task: effort.Task{
					Type: "Attribute counting (mapping share)", Category: effort.CategoryMapping,
					Subject: fmt.Sprintf("%d source attributes", int(attrs)), Repetitions: int(attrs),
				},
				Minutes: mapping,
			},
			{
				Task: effort.Task{
					Type: "Attribute counting (cleaning share)", Category: effort.CategoryCleaningStructure,
					Subject: fmt.Sprintf("%d source attributes", int(attrs)), Repetitions: int(attrs),
				},
				Minutes: cleaning,
			},
		},
	}
}

// FallbackTasks implements core.FallbackEstimator: when the named module
// fails in a best-effort run, its effort contribution is replaced by that
// module's share of the attribute-counting estimate. The mapping module
// receives the Table-1 mapping share; the structure and value modules
// each receive half of the cleaning share (Harden's catalog does not
// split cleaning further); unknown custom modules are priced like a
// cleaning module, conservatively keeping the estimate non-zero. The
// returned tasks are pre-priced and deterministic for a given scenario.
func (c *Counting) FallbackTasks(s *core.Scenario, module string, q effort.Quality) []effort.TaskEffort {
	attrs := SourceAttributes(s)
	total := float64(attrs) * HoursPerAttribute() * 60 * databaseFraction * c.Scale
	mappingMin := total * mappingShare()
	cleaningMin := total - mappingMin
	cat := effort.CategoryCleaningStructure
	minutes := cleaningMin / 2
	switch module {
	case mapping.ModuleName:
		cat, minutes = effort.CategoryMapping, mappingMin
	case valuefit.ModuleName:
		cat = effort.CategoryCleaningValues
	case structure.ModuleName:
		// cleaning structure share, set above
	}
	return []effort.TaskEffort{{
		Task: effort.Task{
			Type:        "Attribute counting (fallback)",
			Category:    cat,
			Quality:     q,
			Subject:     fmt.Sprintf("module %s, %d source attributes", module, attrs),
			Repetitions: attrs,
		},
		Minutes: minutes,
	}}
}

// Calibrate fits the scale factor that minimizes the squared relative
// error against measured efforts on a training set (least squares on the
// ratio measured/estimated): the "fair calibration" of §6.2. It returns
// the fitted scale; estimates of zero are skipped.
func (c *Counting) Calibrate(estimates, measured []float64) float64 {
	num, den := 0.0, 0.0
	for i := range estimates {
		if i >= len(measured) || estimates[i] <= 0 || measured[i] <= 0 {
			continue
		}
		// Minimize Σ ((measured - k·est)/measured)²: weighted least
		// squares with weights 1/measured².
		r := estimates[i] / measured[i]
		num += r
		den += r * r
	}
	if den == 0 {
		return 1
	}
	c.Scale *= num / den
	return c.Scale
}

// Table1String renders Table 1 for the experiment harness.
func Table1String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %s\n", "Task", "Hours per attribute")
	for _, t := range Table1() {
		fmt.Fprintf(&b, "%-32s %19.2f\n", t.Name, t.HoursPerAttribute)
	}
	fmt.Fprintf(&b, "%-32s %19.2f\n", "Total", HoursPerAttribute())
	return b.String()
}
