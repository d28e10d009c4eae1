package core

// The resilience layer: context-aware pipeline entry points with
// per-module deadlines, panic isolation, bounded retry-with-backoff, and
// graceful degradation onto the attribute-counting baseline. The paper's
// premise is estimating effort over dirty, half-broken source data
// *before* cleaning it, so a single malformed input or panicking detector
// must not take down the whole estimation run: in best-effort mode a
// failed module is recorded on the Result and its effort contribution is
// replaced by a fallback estimate, keeping the overall figure usable.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"efes/internal/effort"
	"efes/internal/fanout"
	"efes/internal/faultinject"
)

// Resilience configures how the framework reacts to module failures.
// The zero value reproduces the historical strict behavior: no deadlines,
// no retries, abort on the first failure (panics are still converted to
// errors instead of crashing the process).
type Resilience struct {
	// ModuleTimeout is the deadline for one detector attempt; 0 means
	// no per-module deadline. The overall deadline is the caller's
	// context deadline.
	ModuleTimeout time.Duration
	// Retries is how many times a failed detector attempt is retried
	// (so a detector runs at most Retries+1 times). Context
	// cancellation and deadline expiry are never retried. A negative
	// value is refused: it would run no attempt at all.
	Retries int
	// Backoff is the wait before the first retry; it doubles with each
	// further retry and is interruptible by the context.
	Backoff time.Duration
	// BestEffort degrades instead of aborting: a module that still
	// fails after all retries is recorded as a ModuleFailure on the
	// Result and its effort contribution falls back to the framework's
	// FallbackEstimator. When false (fail-fast), the first failure
	// aborts the run with an error naming the module.
	BestEffort bool
}

// ModuleFailure records one module that failed during a best-effort run.
type ModuleFailure struct {
	// Module is the failed module's name.
	Module string
	// Stage is the pipeline stage that failed: "assess", "plan", or
	// "deadline" (the whole request's deadline expired before the
	// pipeline finished — see FallbackResult).
	Stage string
	// Err is the final error (a recovered panic becomes a *PanicError).
	Err error
	// Attempts is how many times the stage was attempted.
	Attempts int
	// FallbackMinutes is the effort substituted for the module by the
	// fallback estimator (0 when no fallback is configured).
	FallbackMinutes float64
}

// String renders the failure for Result.Summary. The rendering is
// deterministic as long as Err's message is (injected faults and deadline
// errors are).
func (mf ModuleFailure) String() string {
	s := fmt.Sprintf("%s: %s failed after %d attempt(s): %v", mf.Module, mf.Stage, mf.Attempts, mf.Err)
	if mf.FallbackMinutes > 0 {
		s += fmt.Sprintf(" — baseline fallback %.0f min", mf.FallbackMinutes)
	}
	return s
}

// PanicError is a detector or planner panic recovered by the isolation
// layer. Error renders only the panic value — not the stack — so degraded
// reports stay byte-stable across runs; the stack is kept for debugging.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the goroutine that panicked: the recovering
	// goroutine's, or for a panic a fanout.Run worker relayed, the
	// worker's.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// recoveredPanic converts a value recovered by the isolation layer into
// a PanicError. A *fanout.Panic yields its value and the stack of the
// worker that panicked; it must be called from the deferred recover, so
// that for any other value the stack taken here holds the panicking
// frames.
func recoveredPanic(v any) *PanicError {
	if p, ok := v.(*fanout.Panic); ok {
		return &PanicError{Value: p.Value, Stack: p.Stack}
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// FallbackEstimator supplies a replacement effort contribution for a
// failed module (the attribute-counting baseline of §6 in the standard
// wiring; see efes.NewFramework). The returned tasks are pre-priced:
// fallback estimators do not depend on the calculator's function table.
type FallbackEstimator interface {
	FallbackTasks(s *Scenario, module string, q effort.Quality) []effort.TaskEffort
}

// ContextModule is an optional interface for modules whose detector
// honors cancellation. The framework's context-aware entry points call
// AssessComplexityContext when a module implements it; other modules run
// their plain detector under a deadline watchdog (the attempt is
// abandoned, not interrupted, when the deadline expires).
type ContextModule interface {
	AssessComplexityContext(ctx context.Context, s *Scenario) (Report, error)
}

// SetResilience configures deadlines, retries, and the degradation mode.
// Like SetWorkers it must be called before sharing the framework across
// goroutines.
func (f *Framework) SetResilience(r Resilience) *Framework {
	f.res = r
	return f
}

// ResiliencePolicy returns the configured resilience settings.
func (f *Framework) ResiliencePolicy() Resilience { return f.res }

// WithResilience returns a copy of the framework with the given policy,
// sharing the modules, calculator, and fallback estimator of the
// original. Unlike SetResilience it does not mutate the receiver, so a
// framework shared across concurrent requests (e.g. by the efesd daemon)
// can derive a per-request policy without a data race.
func (f *Framework) WithResilience(r Resilience) *Framework {
	g := *f
	g.res = r
	return &g
}

// FallbackResult builds the fully degraded Result for a request whose
// overall deadline expired (or that failed wholesale for another reason)
// before the pipeline could finish: every module is recorded as a
// "deadline"-stage failure carrying the cause, and the estimate consists
// purely of the fallback estimator's tasks, in module registration
// order. EstimateContext deliberately surfaces the caller's cancellation
// as an error instead of degrading (a half-cancelled run must not
// masquerade as a clean one); FallbackResult is the explicit opt-in for
// callers — like a best-effort service endpoint — that still owe their
// client an answer. The output is deterministic as long as cause's
// message is.
func (f *Framework) FallbackResult(s *Scenario, q effort.Quality, cause error) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	est, err := f.calc.Price(q, nil)
	if err != nil {
		return nil, err
	}
	failures := make([]ModuleFailure, 0, len(f.modules))
	for _, m := range f.modules {
		mf := ModuleFailure{Module: m.Name(), Stage: "deadline", Err: cause, Attempts: 1}
		if f.fallback != nil {
			fb := f.fallback.FallbackTasks(s, m.Name(), q)
			for _, te := range fb {
				mf.FallbackMinutes += te.Minutes
			}
			est.Tasks = append(est.Tasks, fb...)
		}
		failures = append(failures, mf)
	}
	return &Result{Scenario: s.Name, Estimate: est, Failures: failures}, nil
}

// SetFallback installs the estimator that replaces a failed module's
// effort contribution in best-effort mode. Without a fallback a failed
// module contributes zero effort (it is still listed on the Result).
func (f *Framework) SetFallback(fb FallbackEstimator) *Framework {
	f.fallback = fb
	return f
}

// Fallback returns the configured fallback estimator, if any.
func (f *Framework) Fallback() FallbackEstimator { return f.fallback }

// detectorOutcome is one detector attempt's result.
type detectorOutcome struct {
	rep Report
	err error
}

// attemptDetector runs one detector attempt under panic recovery and the
// per-module deadline. The attempt runs on its own goroutine so that an
// expired deadline abandons it (the goroutine finishes in the background
// and its result is discarded — detectors are pure functions of the
// scenario, so nothing needs to be rolled back).
func (f *Framework) attemptDetector(ctx context.Context, m Module, s *Scenario) (Report, error) {
	mctx := ctx
	if f.res.ModuleTimeout > 0 {
		var cancel context.CancelFunc
		mctx, cancel = context.WithTimeout(ctx, f.res.ModuleTimeout)
		defer cancel()
	}
	// The goroutine below is deliberately detached — no WaitGroup joins
	// it. Its leak-freedom proof (checked statically by efeslint's goleak
	// rule) is the cap-1 buffer: exactly one of the three sends executes
	// per attempt (the recover arm only fires when the normal sends were
	// skipped by the panic), so the send completes even after the select
	// below has abandoned the attempt, and the goroutine always runs to
	// completion. Shrinking the buffer or adding a second dynamic send
	// would turn the abandon path into a permanent goroutine leak.
	//
	// The one transitive wait the analyzer flags — fanout.Run's
	// WaitGroup.Wait, reached through the detectors — is bounded: every
	// worker Run starts is Add/defer-Done paired and runs finite items
	// (value-fit pairs, which check mctx before each pair and profile
	// each column in one pass), so when the select below abandons the
	// attempt the deferred cancel cuts the work short and the Wait (and
	// with it this goroutine) still terminates promptly.
	ch := make(chan detectorOutcome, 1)
	//lint:ignore goleak fanout.Run's Wait is bounded (workers are Add/defer-Done paired and run finite items that poll mctx), so the detached attempt always runs to completion; the cap-1 buffered send then never blocks
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- detectorOutcome{err: recoveredPanic(v)}
			}
		}()
		if err := faultinject.Fire("core:detector:" + m.Name()); err != nil {
			ch <- detectorOutcome{err: err}
			return
		}
		var o detectorOutcome
		if cm, ok := m.(ContextModule); ok {
			o.rep, o.err = cm.AssessComplexityContext(mctx, s)
		} else {
			//lint:ignore ctxflow this branch only runs for modules whose dynamic type has no Context variant — the type assertion above already routes every ContextModule through AssessComplexityContext(mctx)
			o.rep, o.err = m.AssessComplexity(s)
		}
		ch <- o
	}()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-mctx.Done():
		err := mctx.Err()
		if ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			// The module's own deadline, not the caller's: name it with
			// the configured timeout so the message is byte-stable.
			err = fmt.Errorf("detector timed out after %s: %w", f.res.ModuleTimeout, context.DeadlineExceeded)
		}
		return nil, err
	}
}

// runDetector runs one module's detector under the full policy: panic
// recovery, per-module deadline, and retry-with-backoff. It returns the
// report, the number of attempts made, and the final error.
func (f *Framework) runDetector(ctx context.Context, m Module, s *Scenario) (Report, int, error) {
	attempts := 0
	var lastErr error
	for try := 0; try <= f.res.Retries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, attempts, err
		}
		if try > 0 && f.res.Backoff > 0 {
			t := time.NewTimer(f.res.Backoff << (try - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, attempts, ctx.Err()
			case <-t.C:
			}
		}
		attempts++
		rep, err := f.attemptDetector(ctx, m, s)
		if err == nil {
			return rep, attempts, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancellation is final, and a module that just exhausted
			// its deadline would only exhaust it again.
			return nil, attempts, err
		}
	}
	return nil, attempts, lastErr
}

// runPlanner runs one module's task planner under panic recovery. The
// planner is a cheap, deterministic function of the report, so it gets
// isolation but no deadline or retries.
func (f *Framework) runPlanner(m Module, r Report, q effort.Quality) (tasks []effort.Task, err error) {
	defer func() {
		if v := recover(); v != nil {
			tasks, err = nil, recoveredPanic(v)
		}
	}()
	if err := faultinject.Fire("core:planner:" + m.Name()); err != nil {
		return nil, err
	}
	return m.PlanTasks(r, q)
}

// assessAligned runs every detector under the resilience policy and
// returns reports aligned with the module list (nil entries for failed
// modules), the failures in registration order, and — in fail-fast mode
// — the first error in registration order. The detectors run through
// fanout.Run on up to SetWorkers goroutines; in fail-fast mode no module
// starts after a failed one. When the caller's context is done once the
// detectors have joined, its error is returned as it is, at any worker
// count and in either mode: degrading would silently swallow the
// cancellation. A negative retry budget is an error before any detector
// runs: with no attempt made, every module would report nothing and the
// estimate would read as a clean zero.
func (f *Framework) assessAligned(ctx context.Context, s *Scenario) ([]Report, []ModuleFailure, error) {
	if f.res.Retries < 0 {
		return nil, nil, fmt.Errorf("core: retries %d is negative", f.res.Retries)
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	reports := make([]Report, len(f.modules))
	attempts := make([]int, len(f.modules))
	errs := make([]error, len(f.modules))
	err := fanout.Run(len(f.modules), f.workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := f.modules[i]
		reports[i], attempts[i], errs[i] = f.runDetector(ctx, m, s)
		if errs[i] != nil && !f.res.BestEffort {
			return fmt.Errorf("core: module %s: %w", m.Name(), errs[i])
		}
		return nil
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, nil, ctxErr
	}
	if err != nil {
		return nil, nil, err
	}
	var failures []ModuleFailure
	for i, err := range errs { // registration order; only best-effort gets here with errors
		if err != nil {
			failures = append(failures, ModuleFailure{
				Module: f.modules[i].Name(), Stage: "assess", Err: err, Attempts: attempts[i],
			})
		}
	}
	return reports, failures, nil
}

// AssessComplexityContext is AssessComplexity with overall cancellation,
// per-module deadlines, and graceful degradation. Successful reports are
// returned in module registration order; in best-effort mode failed
// modules are skipped and listed (in registration order) as failures. In
// fail-fast mode (the default) the first failure in registration order is
// returned as an error naming the module.
func (f *Framework) AssessComplexityContext(ctx context.Context, s *Scenario) ([]Report, []ModuleFailure, error) {
	aligned, failures, err := f.assessAligned(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	var reports []Report
	for _, r := range aligned {
		if r != nil {
			reports = append(reports, r)
		}
	}
	return reports, failures, nil
}

// EstimateContext is Estimate with overall cancellation, per-module
// deadlines, and graceful degradation. In best-effort mode a Result is
// returned even when modules failed: the failures are listed on the
// Result (Result.Degraded reports true) and each failed module's effort
// contribution is replaced by the fallback estimator's tasks, appended
// after the regular tasks in module registration order. The output is
// deterministic across runs and worker counts.
func (f *Framework) EstimateContext(ctx context.Context, s *Scenario, q effort.Quality) (*Result, error) {
	aligned, failures, err := f.assessAligned(ctx, s)
	if err != nil {
		return nil, err
	}
	failed := make(map[string]bool, len(failures))
	for _, mf := range failures {
		failed[mf.Module] = true
	}
	var tasks []effort.Task
	for i, m := range f.modules {
		if aligned[i] == nil {
			continue // already failed at assess
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ts, perr := f.runPlanner(m, aligned[i], q)
		if perr != nil {
			if !f.res.BestEffort {
				return nil, fmt.Errorf("core: module %s: %w", m.Name(), perr)
			}
			failures = append(failures, ModuleFailure{
				Module: m.Name(), Stage: "plan", Err: perr, Attempts: 1,
			})
			failed[m.Name()] = true
			aligned[i] = nil // drop the report: its tasks are replaced by the fallback
			continue
		}
		tasks = append(tasks, ts...)
	}
	est, err := f.calc.Price(q, tasks)
	if err != nil {
		return nil, err
	}
	// Replace each failed module's contribution by the fallback estimate,
	// in registration order for determinism.
	sort.SliceStable(failures, func(i, j int) bool {
		return f.moduleIndex(failures[i].Module) < f.moduleIndex(failures[j].Module)
	})
	if f.fallback != nil {
		for i := range failures {
			fb := f.fallback.FallbackTasks(s, failures[i].Module, q)
			for _, te := range fb {
				failures[i].FallbackMinutes += te.Minutes
			}
			est.Tasks = append(est.Tasks, fb...)
		}
	}
	var reports []Report
	for _, r := range aligned {
		if r != nil {
			reports = append(reports, r)
		}
	}
	return &Result{Scenario: s.Name, Reports: reports, Estimate: est, Failures: failures}, nil
}

// moduleIndex returns the registration index of the named module (or
// len(modules) for unknown names).
func (f *Framework) moduleIndex(name string) int {
	for i, m := range f.modules {
		if m.Name() == name {
			return i
		}
	}
	return len(f.modules)
}
