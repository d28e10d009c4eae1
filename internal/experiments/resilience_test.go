package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/faultinject"
	"efes/internal/structure"
)

// TestResilienceCancellationStopsGridMidRun interrupts the parallel
// evaluation grid while cells are still being dispatched (run under
// -race by `make verify` and `make faults`).
func TestResilienceCancellationStopsGridMidRun(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// Slow every cell down so the cancellation lands mid-grid: 16 cells
	// at 100ms each on 4 workers per domain cannot finish in 150ms.
	faultinject.Enable("experiments:cell", faultinject.Fault{Kind: faultinject.Delay, Delay: 100 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunResilient(ctx, DefaultSeed, 4, core.Resilience{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Unstarted cells are skipped once the context is cancelled, so the
	// grid returns promptly instead of draining all 16 slow cells.
	if elapsed > 20*time.Second {
		t.Errorf("cancelled grid took %v", elapsed)
	}
}

// TestResilienceDegradedGridSurvivesDetectorFault forces the structure
// detector to fail in every framework run of one domain grid and checks
// that the best-effort policy degrades the cells (baseline fallback)
// instead of killing the runs. (The full grid's practitioner measurement
// shares the global detector fault points, so this exercises the grid
// framework directly.)
func TestResilienceDegradedGridSurvivesDetectorFault(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+structure.ModuleName, faultinject.Fault{Kind: faultinject.Panic})

	fw := gridFramework(core.Resilience{BestEffort: true})
	d := BibliographicDomain()
	for _, spec := range d.Scenarios {
		scn := spec.Build(DefaultSeed)
		got, err := fw.EstimateContext(context.Background(), scn, effort.HighQuality)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !got.Degraded() || len(got.Failures) != 1 || got.Failures[0].Module != structure.ModuleName {
			t.Fatalf("%s: failures = %v", spec.Name, got.Failures)
		}
		// Degraded cells still price the surviving modules plus the
		// baseline fallback for the failed one.
		if got.Estimate.Total() <= 0 {
			t.Errorf("%s: degraded cell has no effort", spec.Name)
		}
	}
}

// TestResilienceTimingFaultKeepsGridByteIdentical perturbs the parallel
// grid's scheduling with per-cell delays and checks the output still
// matches the sequential run — the determinism guarantee must not depend
// on timing.
func TestResilienceTimingFaultKeepsGridByteIdentical(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()

	seq, err := RunResilient(context.Background(), DefaultSeed, 1, core.Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable("experiments:cell", faultinject.Fault{Kind: faultinject.Delay, Delay: 3 * time.Millisecond})
	par, err := RunResilient(context.Background(), DefaultSeed, 4, core.Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("timing-perturbed parallel run differs from the sequential run")
	}
	if RenderFigure(seq.Bibliographic) != RenderFigure(par.Bibliographic) {
		t.Errorf("figure 6 rendering differs")
	}
}

// TestResilienceAblationHonoursCancellation runs the ablation study with
// a cancelled context, which must evaluate no cell, and with one
// cancelled while its first configuration runs: each of its 80 cells
// takes 100ms on one worker, so only a study that stops at the
// cancellation returns before evaluating them all.
func TestResilienceAblationHonoursCancellation(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("experiments:cell", faultinject.Fault{Kind: faultinject.Delay, Delay: 100 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Ablation(ctx, DefaultSeed, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before the start: err = %v, want context.Canceled", err)
	}
	if n := faultinject.Fired("experiments:cell"); n != 0 {
		t.Fatalf("cancelled before the start: %d cells evaluated, want 0", n)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	if _, err := Ablation(ctx, DefaultSeed, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run: err = %v, want context.Canceled", err)
	}
	if n, all := faultinject.Fired("experiments:cell"), 5*2*len(BibliographicDomain().Scenarios)*len(gridQualities); n >= all {
		t.Errorf("cancelled mid-run: %d of %d cells evaluated", n, all)
	}
}
