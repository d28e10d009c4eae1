package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanoutRunsEveryIndexOnce runs every index exactly once, whatever
// the worker count, including none and more workers than items.
func TestFanoutRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 200} {
			runs := make([]atomic.Int32, n)
			if err := Run(n, workers, func(i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n %d, %d workers: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n %d, %d workers: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestFanoutCancelStartsNoFurtherIndex runs 100 items on four workers.
// The first cancels the context and the others in flight wait for the
// cancellation, and all of them succeed, so only the context check at
// the top of fn can keep the rest from starting. Each worker takes one
// index before the cancellation at most, so only the first four may
// have started.
func TestFanoutCancelStartsNoFurtherIndex(t *testing.T) {
	const workers, n = 4, 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started [n]atomic.Bool
	err := Run(n, workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		started[i].Store(true)
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	for i := workers; i < n; i++ {
		if started[i].Load() {
			t.Errorf("index %d started after the cancellation", i)
		}
	}
}

// TestFanoutStopsAfterFailure fails index 0 while indexes 1 to 3 wait
// for it; every index that starts after the failure fails too. A worker
// takes no index after its own failure, so at most one index per other
// worker starts after index 0 fails: seven of 100 at most. Index 0's
// error is returned, not a later one.
func TestFanoutStopsAfterFailure(t *testing.T) {
	const workers, n = 4, 100
	first, later := errors.New("index 0"), errors.New("later index")
	for run := 0; run < 20; run++ {
		var calls atomic.Int32
		broken := make(chan struct{})
		err := Run(n, workers, func(i int) error {
			calls.Add(1)
			if i == 0 {
				close(broken)
				return first
			}
			select {
			case <-broken:
				return later
			default:
			}
			<-broken
			return nil
		})
		if err != first {
			t.Fatalf("run %d: err = %v, want index 0's", run, err)
		}
		if got := calls.Load(); got > 2*workers-1 {
			t.Fatalf("run %d: %d indexes started, want at most %d", run, got, 2*workers-1)
		}
	}
}

// TestFanoutFirstErrorInIndexOrder makes indexes 1 and 5 fail, once
// with index 5 failing first in time and once with index 1 first.
// Index 1's error is returned either way.
func TestFanoutFirstErrorInIndexOrder(t *testing.T) {
	errEarly, errLate := errors.New("index 1"), errors.New("index 5")
	for _, lateFirst := range []bool{true, false} {
		for _, workers := range []int{2, 4} {
			for run := 0; run < 10; run++ {
				lateFailed := make(chan struct{})
				err := Run(8, workers, func(i int) error {
					switch i {
					case 1:
						if lateFirst {
							<-lateFailed
						}
						return errEarly
					case 5:
						close(lateFailed)
						return errLate
					}
					return nil
				})
				if err != errEarly {
					t.Fatalf("index 5 first %v, %d workers, run %d: err = %v, want index 1's",
						lateFirst, workers, run, err)
				}
			}
		}
	}
}

// panicky panics with v; its name must appear in a relayed stack.
func panicky(v any) {
	panic(v)
}

// recovered runs f and returns the value it panicked with.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestFanoutRelaysPanic panics at indexes 2 and 6 on four workers and
// fails index 4: index 2's panic is raised on the caller's goroutine as
// a *Panic with its value and the worker's stack, which holds the
// frames that panicked, and it prints as its value.
func TestFanoutRelaysPanic(t *testing.T) {
	boom := errors.New("boom")
	v := recovered(func() {
		_ = Run(8, 4, func(i int) error {
			switch i {
			case 2:
				panicky(boom)
			case 4:
				return errors.New("index 4")
			case 6:
				panicky("index 6")
			}
			return nil
		})
	})
	p, ok := v.(*Panic)
	if !ok {
		t.Fatalf("recovered %T %v, want a *Panic", v, v)
	}
	if p.Value != boom {
		t.Errorf("Value = %v, want index 2's", p.Value)
	}
	if !strings.Contains(string(p.Stack), "fanout.panicky") {
		t.Errorf("Stack does not hold the panicking frame:\n%s", p.Stack)
	}
	if got, want := fmt.Sprint(p), fmt.Sprint(boom); got != want {
		t.Errorf("fmt.Sprint(*Panic) = %q, want %q", got, want)
	}
	if got, want := fmt.Sprintf("internal panic: %v", p), "internal panic: boom"; got != want {
		t.Errorf("%%v renders %q, want %q", got, want)
	}
}

// TestFanoutNestedPanicRelayedOnce panics inside a Run nested in
// another: the outer Run passes the inner *Panic on as it is, so its
// value is the original one and its stack the innermost worker's.
func TestFanoutNestedPanicRelayedOnce(t *testing.T) {
	v := recovered(func() {
		_ = Run(4, 2, func(i int) error {
			if i == 1 {
				return Run(4, 2, func(j int) error {
					if j == 2 {
						panicky("inner")
					}
					return nil
				})
			}
			return nil
		})
	})
	p, ok := v.(*Panic)
	if !ok {
		t.Fatalf("recovered %T %v, want a *Panic", v, v)
	}
	if p.Value != "inner" {
		t.Errorf("Value = %#v, want the inner panic's value", p.Value)
	}
	if !strings.Contains(string(p.Stack), "fanout.panicky") {
		t.Errorf("Stack does not hold the inner panicking frame:\n%s", p.Stack)
	}
}

// TestFanoutInlineDoesNotAllocate pins the inline path: one worker or
// one item runs fn on the caller's goroutine without allocating, and a
// panic there propagates as it is.
func TestFanoutInlineDoesNotAllocate(t *testing.T) {
	fn := func(i int) error { return nil }
	for _, c := range []struct{ n, workers int }{{8, 1}, {1, 4}, {0, 4}} {
		if allocs := testing.AllocsPerRun(100, func() { _ = Run(c.n, c.workers, fn) }); allocs != 0 {
			t.Errorf("Run(%d, %d): %v allocs/op, want 0", c.n, c.workers, allocs)
		}
	}
	if v := recovered(func() { _ = Run(3, 1, func(i int) error { panicky("inline"); return nil }) }); v != "inline" {
		t.Errorf("inline panic recovered as %#v, want the value itself", v)
	}
}

// TestFanoutPanicJoinsWorkers checks that a relayed panic leaves no
// worker behind.
func TestFanoutPanicJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for run := 0; run < 10; run++ {
		recovered(func() {
			_ = Run(64, 8, func(i int) error {
				if i%7 == 3 {
					panicky(i)
				}
				return nil
			})
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panicking runs, %d before", n, before)
	}
}
