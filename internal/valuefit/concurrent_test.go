package valuefit

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/faultinject"
	"efes/internal/match"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
)

// The tests below pin what value fit promises when its attribute pairs
// run on several goroutines: the report of a sequential run, the error
// of the first failing pair in pair order, and a pair's panic raised on
// the detector's goroutine with the frames that panicked. That no pair
// starts after cancellation is the fanout package's to pin.

// TestValueFitWorkersMatchSequential compares the report of four pair
// goroutines with the sequential one on the running example.
func TestValueFitWorkersMatchSequential(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	reports := make([]*Report, 2)
	for i, workers := range []int{1, 4} {
		m := New()
		m.Profiler = profile.NewProfiler(workers)
		rep, err := m.AssessComplexity(scn)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep.(*Report)
	}
	seq, par := reports[0], reports[1]
	if seq.PairsChecked < 2 {
		t.Fatalf("PairsChecked = %d: the example must have pairs to fan out", seq.PairsChecked)
	}
	if got, want := par.Summary(), seq.Summary(); got != want {
		t.Errorf("4 workers:\n%s\n1 worker:\n%s", got, want)
	}
	for i := range seq.Heterogeneities {
		if *par.Heterogeneities[i] != *seq.Heterogeneities[i] {
			t.Errorf("heterogeneity %d: 4 workers %+v, 1 worker %+v", i, *par.Heterogeneities[i], *seq.Heterogeneities[i])
		}
	}
}

// TestFaultValueFitPairPanic arms profile:column to panic on its third
// call while four goroutines check the running example's pairs. The panic
// happens on a pair goroutine; it must reach core as value fit's
// PanicError, failing a fail-fast estimate and degrading a best-effort
// one, with a stack that holds the frames that panicked, and no
// goroutine may outlive the estimates.
func TestFaultValueFitPairPanic(t *testing.T) {
	defer faultinject.Reset()
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	before := runtime.NumGoroutine()
	for _, bestEffort := range []bool{false, true} {
		faultinject.Reset()
		faultinject.Enable("profile:column", faultinject.Fault{Kind: faultinject.Panic, OnCall: 3})
		m := New()
		m.Profiler = profile.NewProfiler(4)
		fw := core.New(effort.NewCalculator(effort.DefaultSettings()), m).
			SetResilience(core.Resilience{BestEffort: bestEffort})
		res, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
		if got := faultinject.Fired("profile:column"); got != 1 {
			t.Fatalf("best effort %v: the fault fired %d times, want 1", bestEffort, got)
		}
		var pe *core.PanicError
		if !bestEffort {
			if err == nil || !errors.As(err, &pe) {
				t.Fatalf("fail-fast: err = %v, want a *core.PanicError", err)
			}
			if !strings.Contains(err.Error(), "core: module "+ModuleName) ||
				!strings.Contains(err.Error(), "injected panic at profile:column") {
				t.Errorf("fail-fast: err = %q, want value fit named with the panic", err)
			}
		} else {
			if err != nil {
				t.Fatalf("best effort: %v", err)
			}
			if !res.Degraded() || len(res.Failures) != 1 || res.Failures[0].Module != ModuleName {
				t.Fatalf("best effort: failures = %+v, want value fit alone", res.Failures)
			}
			if !errors.As(res.Failures[0].Err, &pe) {
				t.Fatalf("best effort: failure = %v, want a *core.PanicError", res.Failures[0].Err)
			}
		}
		for _, frame := range []string{"faultinject.Fire", "(*Profiler).get"} {
			if !strings.Contains(string(pe.Stack), frame) {
				t.Errorf("best effort %v: the PanicError's stack does not name %s:\n%s", bestEffort, frame, pe.Stack)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the estimates, %d before", n, before)
	}
}

// TestValueFitFirstErrorInPairOrder makes the first and second pairs
// fail: the first only after profiling a 50,000-row source column, the
// second at once. The first pair's error is returned however the pairs
// interleave.
func TestValueFitFirstErrorInPairOrder(t *testing.T) {
	ss := relational.NewSchema("src")
	ss.MustAddTable(relational.MustTable("s", relational.Column{Name: "a", Type: relational.Integer}))
	ts := relational.NewSchema("tgt")
	ts.MustAddTable(relational.MustTable("t", relational.Column{Name: "b", Type: relational.Integer}))
	sdb, tdb := relational.NewDatabase(ss), relational.NewDatabase(ts)
	for i := 0; i < 50000; i++ {
		sdb.MustInsert("s", int64(i*7919%100003))
	}
	tdb.MustInsert("t", int64(1))
	corr := &match.Set{}
	corr.Attr("s", "a", "t", "ghost0")
	corr.Attr("s", "ghost1", "t", "b")
	corr.Attr("s", "a", "t", "b")
	scn := &core.Scenario{Name: "errors", Target: tdb,
		Sources: []*core.Source{{Name: "src", DB: sdb, Correspondences: corr}}}
	for run := 0; run < 10; run++ {
		m := New()
		m.Profiler = profile.NewProfiler(4)
		_, err := m.AssessComplexity(scn)
		if err == nil || !strings.Contains(err.Error(), "ghost0") {
			t.Fatalf("run %d: err = %v, want the first pair's unknown column t.ghost0", run, err)
		}
	}
}
