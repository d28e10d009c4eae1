// Package core defines the EFES framework of §3: the data integration
// scenario model, the two-dimensional modularization (estimation modules =
// data complexity detector + task planner), and the estimation pipeline
// that separates the objective complexity assessment from the
// context-dependent effort estimation.
package core

import (
	"context"
	"fmt"
	"strings"

	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/relational"
)

// Source is one source database of a scenario together with the
// correspondences that connect it to the target.
type Source struct {
	// Name identifies the source within the scenario.
	Name string
	// DB is the source instance.
	DB *relational.Database
	// Correspondences connect source elements to target elements.
	Correspondences *match.Set
}

// Scenario is a data integration scenario (§3.1): a set of source
// databases, a target database, and correspondences describing how the
// sources relate to the target.
type Scenario struct {
	// Name identifies the scenario (e.g. "s1-s2").
	Name string
	// Sources are the databases to integrate.
	//
	//efes:bounded one entry per source database of the scenario definition; fixed after construction
	Sources []*Source
	// Target is the database to integrate into.
	Target *relational.Database
}

// Validate checks the scenario for basic well-formedness: at least one
// source, a target, unique source names, and correspondences that refer
// to existing elements and are not duplicated (detectors count each
// correspondence, so a duplicate would silently double its problems and
// effort).
func (s *Scenario) Validate() error {
	if s.Target == nil {
		return fmt.Errorf("core: scenario %s has no target", s.Name)
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("core: scenario %s has no sources", s.Name)
	}
	names := make(map[string]bool, len(s.Sources))
	for _, src := range s.Sources {
		if names[src.Name] {
			return fmt.Errorf("core: scenario %s has duplicate source name %s", s.Name, src.Name)
		}
		names[src.Name] = true
		if src.DB == nil {
			return fmt.Errorf("core: source %s has no database", src.Name)
		}
		if src.Correspondences == nil {
			return fmt.Errorf("core: source %s has no correspondences", src.Name)
		}
		seen := make(map[string]bool, len(src.Correspondences.All))
		for _, c := range src.Correspondences.All {
			key := c.SourceTable + "\x00" + c.SourceColumn + "\x00" + c.TargetTable + "\x00" + c.TargetColumn
			if seen[key] {
				return fmt.Errorf("core: source %s has duplicate correspondence %s", src.Name, c)
			}
			seen[key] = true
			st := src.DB.Schema.Table(c.SourceTable)
			if st == nil {
				return fmt.Errorf("core: correspondence %s: unknown source table", c)
			}
			tt := s.Target.Schema.Table(c.TargetTable)
			if tt == nil {
				return fmt.Errorf("core: correspondence %s: unknown target table", c)
			}
			if !c.IsTableLevel() {
				if st.ColumnIndex(c.SourceColumn) < 0 {
					return fmt.Errorf("core: correspondence %s: unknown source column", c)
				}
				if tt.ColumnIndex(c.TargetColumn) < 0 {
					return fmt.Errorf("core: correspondence %s: unknown target column", c)
				}
			}
		}
	}
	return nil
}

// Report is a data complexity report (§3.3). There is intentionally no
// fixed structure — each module tailors its report to its complexity
// indicators — but every report renders itself for the user, as the
// reports "inform the user about integration problems within the
// scenario" independently of the effort estimate.
type Report interface {
	// ModuleName names the module that produced the report.
	ModuleName() string
	// Summary renders the report as human-readable text.
	Summary() string
	// ProblemCount returns the number of concrete integration problems
	// found (used by source selection and tests).
	ProblemCount() int
}

// Module is an estimation module (§3.2): a data complexity detector paired
// with a task planner. Detectors depend only on schemas and instances
// (objective, context-free); planners translate reported problems into
// tasks for a desired result quality.
type Module interface {
	// Name identifies the module.
	Name() string
	// AssessComplexity runs the module's data complexity detector.
	AssessComplexity(s *Scenario) (Report, error)
	// PlanTasks runs the module's task planner on a report produced by
	// this module's AssessComplexity.
	PlanTasks(r Report, q effort.Quality) ([]effort.Task, error)
}

// Result is the outcome of running the framework on a scenario: the
// complexity reports (phase 1) and the priced effort estimate (phase 2).
type Result struct {
	// Scenario is the analyzed scenario's name.
	Scenario string
	// Reports holds one complexity report per module, in module order.
	// In a degraded best-effort run, failed modules have no report.
	Reports []Report
	// Estimate is the priced task list. In a degraded run it includes
	// the fallback tasks substituted for failed modules.
	Estimate *effort.Estimate
	// Failures lists the modules that failed during a best-effort run,
	// in module registration order. Empty for a clean run.
	Failures []ModuleFailure
}

// Degraded reports whether any module failed and the estimate includes
// fallback contributions.
func (r *Result) Degraded() bool { return len(r.Failures) > 0 }

// TotalMinutes returns the estimated total effort.
func (r *Result) TotalMinutes() float64 { return r.Estimate.Total() }

// ProblemCount sums the problems of all module reports.
func (r *Result) ProblemCount() int {
	n := 0
	for _, rep := range r.Reports {
		n += rep.ProblemCount()
	}
	return n
}

// Summary renders all complexity reports, any module failures, and the
// estimate. Degraded summaries are byte-stable across runs and worker
// counts: failures appear in module registration order with deterministic
// messages.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Scenario %s ===\n", r.Scenario)
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "--- %s ---\n%s\n", rep.ModuleName(), rep.Summary())
	}
	if r.Degraded() {
		fmt.Fprintf(&b, "--- DEGRADED: %d module(s) failed ---\n", len(r.Failures))
		for _, mf := range r.Failures {
			fmt.Fprintf(&b, "%s\n", mf)
		}
		b.WriteString("\n")
	}
	b.WriteString(r.Estimate.String())
	return b.String()
}

// Framework wires estimation modules to an effort calculator (Figure 3).
type Framework struct {
	modules  []Module
	calc     *effort.Calculator
	workers  int
	res      Resilience
	fallback FallbackEstimator
}

// New creates a framework with the given calculator and modules. Modules
// run in registration order.
func New(calc *effort.Calculator, modules ...Module) *Framework {
	return &Framework{modules: modules, calc: calc, workers: 1}
}

// Modules returns the registered modules.
func (f *Framework) Modules() []Module { return f.modules }

// Calculator returns the effort calculator.
func (f *Framework) Calculator() *effort.Calculator { return f.calc }

// SetWorkers sets how many module detectors AssessComplexity may run
// concurrently. Values below one select one worker (sequential). Call it
// before sharing the framework across goroutines; the framework itself is
// then safe for concurrent Estimate/AssessComplexity calls as long as the
// registered modules are (the built-in modules are: detectors are pure
// §3.2 functions of the scenario, and the valuefit profiler cache is
// concurrency-safe).
func (f *Framework) SetWorkers(n int) *Framework {
	if n < 1 {
		n = 1
	}
	f.workers = n
	return f
}

// Workers returns the configured detector concurrency.
func (f *Framework) Workers() int { return f.workers }

// AssessComplexity runs only phase 1 on the scenario: every module's data
// complexity detector. The reports are independent of execution settings
// and expected quality, and are useful on their own (source selection,
// data visualization). Detectors are objective and context-free (§3.2),
// so with SetWorkers(n>1) they run concurrently; the result is
// nevertheless deterministic: reports stay in module registration order
// and on failure the first error in registration order is returned.
func (f *Framework) AssessComplexity(s *Scenario) ([]Report, error) {
	reports, _, err := f.AssessComplexityContext(context.Background(), s)
	return reports, err
}

// Estimate runs the full two-phase pipeline: complexity assessment, task
// planning for the expected quality, and effort calculation. It is
// EstimateContext without a deadline; with the zero Resilience policy the
// behavior matches the historical strict pipeline.
func (f *Framework) Estimate(s *Scenario, q effort.Quality) (*Result, error) {
	return f.EstimateContext(context.Background(), s, q)
}

// FitScore ranks how well a source fits the target for source selection
// [9]: fewer problems and less estimated effort mean a better fit. The
// score is 1/(1+minutes); ties break on problem count.
func FitScore(r *Result) float64 {
	return 1 / (1 + r.TotalMinutes() + 0.001*float64(r.ProblemCount()))
}
