package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/profile"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

func defaultFramework() *core.Framework {
	return core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New())
}

func TestEndToEndRunningExample(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := defaultFramework()

	low, err := fw.Estimate(scn, effort.LowEffort)
	if err != nil {
		t.Fatal(err)
	}
	high, err := fw.Estimate(scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if low.TotalMinutes() <= 0 || high.TotalMinutes() <= low.TotalMinutes() {
		t.Errorf("low = %.0f, high = %.0f: high-quality integration must cost more",
			low.TotalMinutes(), high.TotalMinutes())
	}
	if len(low.Reports) != 3 {
		t.Fatalf("reports = %d, want one per module", len(low.Reports))
	}
	if low.ProblemCount() == 0 {
		t.Error("the running example has known problems")
	}
	// All three categories contribute to the high-quality estimate.
	by := high.Estimate.ByCategory()
	for _, cat := range []effort.Category{effort.CategoryMapping, effort.CategoryCleaningStructure, effort.CategoryCleaningValues} {
		if by[cat] <= 0 {
			t.Errorf("category %s contributes nothing: %v", cat, by)
		}
	}
	// The summary contains all module reports and the task table.
	s := high.Summary()
	for _, want := range []string{"music-example", "mapping", "structural conflicts", "value heterogeneities", "Total"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestAssessComplexityOnly(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := defaultFramework()
	reports, err := fw.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	names := map[string]bool{}
	for _, r := range reports {
		names[r.ModuleName()] = true
	}
	if !names["mapping"] || !names["structural conflicts"] || !names["value heterogeneities"] {
		t.Errorf("module names = %v", names)
	}
}

func TestEstimateValidatesScenario(t *testing.T) {
	fw := defaultFramework()
	if _, err := fw.Estimate(&core.Scenario{Name: "empty"}, effort.LowEffort); err == nil {
		t.Error("invalid scenario must be rejected")
	}
}

type failingModule struct{ failAssess bool }

func (m failingModule) Name() string { return "failing" }

func (m failingModule) AssessComplexity(*core.Scenario) (core.Report, error) {
	if m.failAssess {
		return nil, errors.New("assess boom")
	}
	return stubReport{}, nil
}

func (m failingModule) PlanTasks(core.Report, effort.Quality) ([]effort.Task, error) {
	return nil, errors.New("plan boom")
}

type stubReport struct{}

func (stubReport) ModuleName() string { return "stub" }
func (stubReport) Summary() string    { return "stub report" }
func (stubReport) ProblemCount() int  { return 1 }

func TestModuleErrorsArePropagated(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()), failingModule{failAssess: true})
	if _, err := fw.Estimate(scn, effort.LowEffort); err == nil || !strings.Contains(err.Error(), "assess boom") {
		t.Errorf("assess error not propagated: %v", err)
	}
	fw = core.New(effort.NewCalculator(effort.DefaultSettings()), failingModule{})
	if _, err := fw.Estimate(scn, effort.LowEffort); err == nil || !strings.Contains(err.Error(), "plan boom") {
		t.Errorf("plan error not propagated: %v", err)
	}
}

func TestExtensibilityCustomModule(t *testing.T) {
	// A custom module with a custom task type plugs in without touching
	// the engine, provided an effort function is registered
	// (the paper's extensibility requirement).
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	calc := effort.NewCalculator(effort.DefaultSettings())
	calc.SetFunction("Bribe DBA", func(t effort.Task) float64 { return 42 })
	fw := core.New(calc, bribeModule{})
	res, err := fw.Estimate(scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMinutes() != 42 {
		t.Errorf("total = %v, want 42", res.TotalMinutes())
	}
}

type bribeModule struct{}

func (bribeModule) Name() string { return "bribery" }

func (bribeModule) AssessComplexity(*core.Scenario) (core.Report, error) {
	return stubReport{}, nil
}

func (bribeModule) PlanTasks(core.Report, effort.Quality) ([]effort.Task, error) {
	return []effort.Task{{Type: "Bribe DBA", Category: effort.CategoryMapping, Repetitions: 1}}, nil
}

func TestFitScore(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := defaultFramework()
	res, err := fw.Estimate(scn, effort.LowEffort)
	if err != nil {
		t.Fatal(err)
	}
	fit := core.FitScore(res)
	if fit <= 0 || fit >= 1 {
		t.Errorf("fit = %v, want in (0,1)", fit)
	}
	// Less effort means better fit.
	better := &core.Result{Scenario: "x", Estimate: &effort.Estimate{}}
	if core.FitScore(better) <= fit {
		t.Error("zero-effort scenario must fit better")
	}
}

func TestFrameworkAccessors(t *testing.T) {
	calc := effort.NewCalculator(effort.DefaultSettings())
	fw := core.New(calc, mapping.New())
	if len(fw.Modules()) != 1 || fw.Calculator() != calc {
		t.Error("accessors broken")
	}
}

func TestMultiSourceEstimation(t *testing.T) {
	// The framework handles "integration projects with multiple
	// sources" (abstract): two sources integrating into one target
	// produce per-source mapping connections and the union of the
	// cleaning problems.
	single := scenario.MusicExample(scenario.SmallExampleConfig())
	double := scenario.MusicExample(scenario.SmallExampleConfig())
	second := scenario.MusicExample(scenario.SmallExampleConfig()).Sources[0]
	second.Name = "second-source"
	double.Sources = append(double.Sources, second)

	fw := defaultFramework()
	resSingle, err := fw.Estimate(single, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	resDouble, err := fw.Estimate(double, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if resDouble.TotalMinutes() <= resSingle.TotalMinutes() {
		t.Errorf("two sources estimate %.0f should exceed one source %.0f",
			resDouble.TotalMinutes(), resSingle.TotalMinutes())
	}
	if resDouble.ProblemCount() <= resSingle.ProblemCount() {
		t.Errorf("two sources problems %d should exceed one source %d",
			resDouble.ProblemCount(), resSingle.ProblemCount())
	}
	// Roughly double: same source twice doubles the per-source work.
	ratio := resDouble.TotalMinutes() / resSingle.TotalMinutes()
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling the source should roughly double the estimate; ratio = %.2f", ratio)
	}
}

// namedFailing is a module whose detector always fails, for error-order
// tests with several failing modules.
type namedFailing struct{ name string }

func (m namedFailing) Name() string { return m.name }

func (m namedFailing) AssessComplexity(*core.Scenario) (core.Report, error) {
	return nil, errors.New(m.name + " boom")
}

func (m namedFailing) PlanTasks(core.Report, effort.Quality) ([]effort.Task, error) {
	return nil, nil
}

// TestAssessComplexityParallelMatchesSequential runs the detectors
// sequentially and with a worker pool and requires identical reports in
// identical (registration) order.
func TestAssessComplexityParallelMatchesSequential(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	seq, err := defaultFramework().AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := defaultFramework().SetWorkers(4).AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel reports = %d, sequential = %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i].ModuleName() != seq[i].ModuleName() {
			t.Errorf("report %d = %s, want %s (registration order)", i, par[i].ModuleName(), seq[i].ModuleName())
		}
		if par[i].Summary() != seq[i].Summary() {
			t.Errorf("module %s: parallel summary differs from sequential", seq[i].ModuleName())
		}
	}
}

// TestAssessComplexityParallelFirstError requires the error of the
// earliest-registered failing module, regardless of completion order,
// at one worker and at four.
func TestAssessComplexityParallelFirstError(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	for _, workers := range []int{1, 4} {
		fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
			mapping.New(), namedFailing{name: "alpha"}, namedFailing{name: "beta"}).SetWorkers(workers)
		for i := 0; i < 10; i++ { // completion order varies; result must not
			_, err := fw.AssessComplexity(scn)
			if err == nil || err.Error() != "core: module alpha: alpha boom" {
				t.Fatalf("%d workers: err = %v, want the first failing module's error", workers, err)
			}
		}
	}
}

// TestSetWorkersClamps pins the sequential fallback for n < 1.
func TestSetWorkersClamps(t *testing.T) {
	fw := defaultFramework().SetWorkers(-3)
	if fw.Workers() != 1 {
		t.Errorf("workers = %d, want 1", fw.Workers())
	}
	if fw.SetWorkers(8).Workers() != 8 {
		t.Error("SetWorkers(8) not stored")
	}
}

// TestConcurrentEstimatesShareFramework hammers ONE framework (with
// parallel detectors and a shared valuefit profiler) from many
// goroutines, as the parallel experiment grid does. Every goroutine must
// get the same estimate as a private sequential framework. Run with
// -race.
func TestConcurrentEstimatesShareFramework(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	want, err := defaultFramework().Estimate(scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	vm := valuefit.New()
	vm.Profiler = profile.NewProfiler(2)
	shared := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), vm).SetWorkers(2)
	const goroutines = 8
	results := make([]*core.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = shared.Estimate(scn, effort.HighQuality)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Summary() != want.Summary() {
			t.Errorf("goroutine %d: shared-framework estimate differs from private sequential run", i)
		}
	}
	if hits, _ := vm.Profiler.Counters(); hits == 0 {
		t.Error("shared profiler saw no cache hits across concurrent estimates")
	}
}
