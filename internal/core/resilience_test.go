package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"efes/internal/baseline"
	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/faultinject"
	"efes/internal/mapping"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

func resilientFramework(r core.Resilience) *core.Framework {
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New()).SetResilience(r)
	if r.BestEffort {
		fw.SetFallback(baseline.New())
	}
	return fw
}

func TestResilienceBestEffortPanicFallsBack(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Panic})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{BestEffort: true})
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatalf("best-effort run must not fail: %v", err)
	}
	if !res.Degraded() || len(res.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly the mapping module", res.Failures)
	}
	mf := res.Failures[0]
	if mf.Module != mapping.ModuleName || mf.Stage != "assess" || mf.Attempts != 1 {
		t.Errorf("failure = %+v", mf)
	}
	var pe *core.PanicError
	if !errors.As(mf.Err, &pe) {
		t.Fatalf("err = %v, want a recovered *PanicError", mf.Err)
	}
	if !strings.Contains(pe.Error(), "faultinject: injected panic at core:detector:mapping") {
		t.Errorf("panic message = %q", pe.Error())
	}
	if mf.FallbackMinutes <= 0 {
		t.Errorf("fallback minutes = %v, want the baseline substitute", mf.FallbackMinutes)
	}
	// The surviving two modules still report, and the total includes the
	// fallback contribution.
	if len(res.Reports) != 2 {
		t.Errorf("reports = %d, want the two surviving modules", len(res.Reports))
	}
	if res.TotalMinutes() <= 0 {
		t.Errorf("total = %v, want positive despite the failure", res.TotalMinutes())
	}
	s := res.Summary()
	for _, want := range []string{"DEGRADED: 1 module(s) failed", "baseline fallback"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestResilienceFailFastNamesModule(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+valuefit.ModuleName, faultinject.Fault{Kind: faultinject.Panic})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{})
	_, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err == nil {
		t.Fatal("fail-fast run must surface the failure")
	}
	if !strings.Contains(err.Error(), "core: module "+valuefit.ModuleName) {
		t.Errorf("error does not name the module: %v", err)
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Errorf("error does not carry the cause: %v", err)
	}
}

func TestResilienceModuleTimeoutFault(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName,
		faultinject.Fault{Kind: faultinject.Delay, Delay: 2 * time.Second})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{ModuleTimeout: 30 * time.Millisecond, BestEffort: true})
	start := time.Now()
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("run took %v: the stalled detector must be abandoned at its deadline", elapsed)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
	mf := res.Failures[0]
	if !errors.Is(mf.Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", mf.Err)
	}
	if got := mf.Err.Error(); !strings.Contains(got, "detector timed out after 30ms") {
		t.Errorf("timeout message = %q, want the configured duration for byte-stable output", got)
	}
}

func TestResilienceRetryRecoversTransientFault(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// Fail only the first attempt; one retry fixes it even in fail-fast
	// mode.
	faultinject.Enable("core:detector:"+structure.ModuleName,
		faultinject.Fault{Kind: faultinject.Error, OnCall: 1, Times: 1})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{Retries: 1, Backoff: time.Millisecond})
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatalf("the retry must recover the transient fault: %v", err)
	}
	if res.Degraded() {
		t.Errorf("failures = %v, want none after a successful retry", res.Failures)
	}
	if got := faultinject.Calls("core:detector:" + structure.ModuleName); got != 2 {
		t.Errorf("detector attempts = %d, want 2", got)
	}
}

func TestResilienceRetryExhaustion(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Error})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{Retries: 2, Backoff: time.Millisecond, BestEffort: true})
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Attempts != 3 {
		t.Fatalf("failures = %+v, want one failure after 3 attempts", res.Failures)
	}
}

// countingModule counts its detector and planner calls.
type countingModule struct{ calls *atomic.Int32 }

func (m countingModule) Name() string { return "counting" }

func (m countingModule) AssessComplexity(*core.Scenario) (core.Report, error) {
	m.calls.Add(1)
	return stubReport{}, nil
}

func (m countingModule) PlanTasks(core.Report, effort.Quality) ([]effort.Task, error) {
	m.calls.Add(1)
	return nil, nil
}

// TestResilienceNegativeRetriesRefused: a negative retry budget would run
// no detector attempt and price an empty, undegraded estimate. Both entry
// points refuse it, in either mode and at any worker count, before any
// module is called.
func TestResilienceNegativeRetriesRefused(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	for _, bestEffort := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			var calls atomic.Int32
			fw := core.New(effort.NewCalculator(effort.DefaultSettings()), countingModule{&calls}, countingModule{&calls}).
				SetWorkers(workers).
				SetResilience(core.Resilience{Retries: -1, BestEffort: bestEffort})
			if bestEffort {
				fw.SetFallback(baseline.New())
			}
			res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
			if err == nil || !strings.Contains(err.Error(), "retries -1 is negative") || res != nil {
				t.Errorf("best effort %v, %d workers: EstimateContext = %v, %v; want an error naming the negative retries", bestEffort, workers, res, err)
			}
			reports, failures, err := fw.AssessComplexityContext(context.Background(), scn)
			if err == nil || !strings.Contains(err.Error(), "retries -1 is negative") || reports != nil || failures != nil {
				t.Errorf("best effort %v, %d workers: AssessComplexityContext = %v, %v, %v; want an error naming the negative retries", bestEffort, workers, reports, failures, err)
			}
			if n := calls.Load(); n != 0 {
				t.Errorf("best effort %v, %d workers: modules called %d times, want 0", bestEffort, workers, n)
			}
		}
	}
}

func TestResiliencePlannerFaultDegrades(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:planner:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Panic})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{BestEffort: true})
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %v", res.Failures)
	}
	mf := res.Failures[0]
	if mf.Module != mapping.ModuleName || mf.Stage != "plan" {
		t.Errorf("failure = %+v, want a plan-stage mapping failure", mf)
	}
	if mf.FallbackMinutes <= 0 {
		t.Errorf("planner failures must also fall back: %+v", mf)
	}
	// The failed module's report is dropped so its (unpriced) problems
	// are not double-counted next to the fallback.
	if len(res.Reports) != 2 {
		t.Errorf("reports = %d, want 2", len(res.Reports))
	}
}

func TestResilienceBestEffortStillHonorsCancellation(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{BestEffort: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.EstimateContext(ctx, scn, effort.HighQuality); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled even in best-effort mode", err)
	}
}

// TestResilienceCancelledSameErrorAtAnyWorkers estimates with a context
// cancelled before the start, fail-fast and best-effort, at one and at
// four workers between the modules: every run returns the caller's
// cancellation as it is, with the same text.
func TestResilienceCancelledSameErrorAtAnyWorkers(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var first error
	for _, bestEffort := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			fw := resilientFramework(core.Resilience{BestEffort: bestEffort}).SetWorkers(workers)
			_, err := fw.EstimateContext(ctx, scn, effort.HighQuality)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("best effort %v, %d workers: err = %v, want context.Canceled", bestEffort, workers, err)
			}
			if first == nil {
				first = err
			} else if err.Error() != first.Error() {
				t.Errorf("best effort %v, %d workers: err = %q, want %q as at one worker, fail-fast", bestEffort, workers, err, first)
			}
		}
	}
}

func TestResilienceDegradedProblemCount(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Panic})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{BestEffort: true})
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProblemCount() == 0 {
		t.Error("the surviving modules still find the example's problems")
	}
}

func TestResilienceDegradedOutputDeterministic(t *testing.T) {
	defer faultinject.Reset()
	scn := scenario.MusicExample(scenario.SmallExampleConfig())

	run := func(workers int) (summary string, jsonOut []byte, csvOut []byte) {
		faultinject.Reset()
		faultinject.Enable("core:detector:"+structure.ModuleName, faultinject.Fault{Kind: faultinject.Panic})
		fw := resilientFramework(core.Resilience{BestEffort: true}).SetWorkers(workers)
		res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
		if err != nil {
			t.Fatal(err)
		}
		j, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return res.Summary(), j, buf.Bytes()
	}

	s1, j1, c1 := run(1)
	for _, workers := range []int{1, 4, 4} {
		s, j, c := run(workers)
		if s != s1 {
			t.Errorf("summary differs at workers=%d:\n%s\nvs\n%s", workers, s, s1)
		}
		if !bytes.Equal(j, j1) {
			t.Errorf("JSON differs at workers=%d", workers)
		}
		if !bytes.Equal(c, c1) {
			t.Errorf("CSV differs at workers=%d", workers)
		}
	}
}

func TestResilienceDegradedExportRoundTrip(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+valuefit.ModuleName, faultinject.Fault{Kind: faultinject.Error})

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	fw := resilientFramework(core.Resilience{BestEffort: true})
	res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var exported core.ResultExport
	if err := json.Unmarshal(data, &exported); err != nil {
		t.Fatal(err)
	}
	if !exported.Degraded || len(exported.Failures) != 1 {
		t.Fatalf("export = %+v, want degraded with one failure", exported)
	}
	fe := exported.Failures[0]
	if fe.Module != valuefit.ModuleName || fe.Stage != "assess" {
		t.Errorf("failure export = %+v", fe)
	}
	if !strings.Contains(fe.Error, "faultinject: injected error") {
		t.Errorf("failure error = %q", fe.Error)
	}
	if fe.FallbackMinutes != res.Failures[0].FallbackMinutes {
		t.Errorf("fallback minutes: export %v vs result %v", fe.FallbackMinutes, res.Failures[0].FallbackMinutes)
	}

	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csvText := buf.String()
	if !strings.Contains(csvText, "failure,") || !strings.Contains(csvText, valuefit.ModuleName) {
		t.Errorf("CSV missing the failure row:\n%s", csvText)
	}
}

func TestResilienceWithResilienceDoesNotMutateShared(t *testing.T) {
	base := resilientFramework(core.Resilience{BestEffort: true})
	derived := base.WithResilience(core.Resilience{
		ModuleTimeout: 50 * time.Millisecond, Retries: 2, BestEffort: true,
	})
	if base.ResiliencePolicy().Retries != 0 || base.ResiliencePolicy().ModuleTimeout != 0 {
		t.Errorf("WithResilience mutated the shared framework: %+v", base.ResiliencePolicy())
	}
	if got := derived.ResiliencePolicy(); got.Retries != 2 || got.ModuleTimeout != 50*time.Millisecond {
		t.Errorf("derived policy = %+v", got)
	}
	if derived.Fallback() != base.Fallback() {
		t.Error("derived framework must share the fallback estimator")
	}
	if len(derived.Modules()) != len(base.Modules()) {
		t.Error("derived framework must share the module list")
	}
	// The derived copy is a working pipeline.
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	res, err := derived.EstimateContext(context.Background(), scn, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Errorf("clean run degraded: %v", res.Failures)
	}
}

func TestResilienceFallbackResultAllModulesDegraded(t *testing.T) {
	fw := resilientFramework(core.Resilience{BestEffort: true})
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	cause := context.DeadlineExceeded
	res, err := fw.FallbackResult(scn, effort.HighQuality, cause)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() || len(res.Failures) != len(fw.Modules()) {
		t.Fatalf("failures = %d, want one per module (%d)", len(res.Failures), len(fw.Modules()))
	}
	for i, mf := range res.Failures {
		if mf.Module != fw.Modules()[i].Name() {
			t.Errorf("failure %d = %s, want registration order %s", i, mf.Module, fw.Modules()[i].Name())
		}
		if mf.Stage != "deadline" || mf.Attempts != 1 || !errors.Is(mf.Err, cause) {
			t.Errorf("failure %d = %+v", i, mf)
		}
		if mf.FallbackMinutes <= 0 {
			t.Errorf("failure %d has no fallback contribution", i)
		}
	}
	if len(res.Reports) != 0 {
		t.Errorf("reports = %d, want none (nothing ran)", len(res.Reports))
	}
	if res.TotalMinutes() <= 0 {
		t.Error("fallback estimate must still be positive")
	}
	// Deterministic: two builds render byte-identically.
	res2, err := fw.FallbackResult(scn, effort.HighQuality, cause)
	if err != nil {
		t.Fatal(err)
	}
	a, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := res2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("FallbackResult output not byte-stable")
	}
	if res.Summary() != res2.Summary() {
		t.Error("FallbackResult summary not byte-stable")
	}
}

func TestResilienceFallbackResultValidatesScenario(t *testing.T) {
	fw := resilientFramework(core.Resilience{BestEffort: true})
	if _, err := fw.FallbackResult(&core.Scenario{Name: "empty"}, effort.HighQuality, context.DeadlineExceeded); err == nil {
		t.Fatal("invalid scenario must be rejected")
	}
}
