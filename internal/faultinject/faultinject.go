// Package faultinject is a deterministic fault-injection harness for the
// resilience test suite. Production code calls Fire at named fault points
// (e.g. "core:detector:mapping" before a detector runs, "profile:column"
// before a column profile is computed, "experiments:cell" before an
// evaluation-grid cell); with no faults armed a Fire call costs a single
// atomic load, so the hooks are safe to leave in hot paths. Tests arm
// faults — panics, errors, and delays, optionally only on the N-th call —
// against exact point names and must disarm them again with Reset.
//
// Injected panics and errors carry stable, seed-independent messages so
// that degraded reports built from them are byte-identical across runs
// and worker counts (the determinism contract of the resilience layer).
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed fault does when it triggers.
type Kind int

const (
	// Error makes Fire return an error.
	Error Kind = iota
	// Panic makes Fire panic with a stable message naming the point.
	Panic
	// Delay makes Fire sleep for the configured duration and succeed.
	Delay
)

// Fault describes one armed fault at a point.
type Fault struct {
	// Kind is what happens when the fault triggers.
	Kind Kind
	// Delay is how long a Delay fault sleeps.
	Delay time.Duration
	// Err is returned by an Error fault; nil selects a default error
	// naming the point.
	Err error
	// OnCall triggers the fault only on the N-th Fire of the point
	// (1-based); 0 triggers on every call. Combined with Times this
	// expresses "fail the first K attempts, then succeed".
	OnCall int
	// Times bounds how often the fault triggers; 0 is unlimited.
	Times int
}

// armed is one registered fault with its trigger bookkeeping.
type armed struct {
	Fault
	calls int // Fire invocations seen at the point by this fault
	fired int // times this fault actually triggered
}

var (
	mu     sync.Mutex
	points = make(map[string][]*armed)
	// armedCount guards the Fire fast path: zero means no fault is
	// registered anywhere and Fire returns immediately.
	armedCount atomic.Int32
)

// Points returns the registry of valid fault-point names. Entries ending
// in "*" are prefixes covering a family of points (e.g. "core:detector:*"
// covers "core:detector:mapping"). Production Fire calls and test Enable
// calls must both use names matched by this registry: the efeslint
// faultpoint analyzer checks string literals statically, and the registry
// test in this package checks the Fire call sites of the instrumented
// packages, so a typo'd point that would silently never fire is caught
// at both ends. Keep this list in sync when adding a Fire call at a new
// point.
func Points() []string {
	return []string{
		"core:detector:*",
		"core:planner:*",
		"experiments:cell",
		"persist:corrupt",
		"persist:lock",
		"persist:read",
		"persist:write",
		"profile:column",
		"relational:intern",
	}
}

// Enable arms a fault at the named point. Points are matched by exact
// string equality.
func Enable(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	points[point] = append(points[point], &armed{Fault: f})
	armedCount.Add(1)
}

// Reset disarms every fault and forgets all call counts.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string][]*armed)
	armedCount.Store(0)
}

// Calls reports how many times the named point has been fired since the
// last Reset (the maximum over its armed faults' call counters).
func Calls(point string) int {
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, a := range points[point] {
		if a.calls > n {
			n = a.calls
		}
	}
	return n
}

// Fired reports how many times faults at the named point have triggered.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, a := range points[point] {
		n += a.fired
	}
	return n
}

// Fire is called by production code at a fault point. With no armed
// faults anywhere it is a single atomic load. When an armed fault
// triggers, Fire panics (Panic), returns an error (Error), or sleeps and
// falls through (Delay); multiple triggered faults at one point apply
// delays first, then the first Panic/Error wins.
func Fire(point string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	var triggered []*armed
	for _, a := range points[point] {
		a.calls++
		if a.OnCall != 0 && a.calls != a.OnCall {
			continue
		}
		if a.Times != 0 && a.fired >= a.Times {
			continue
		}
		a.fired++
		triggered = append(triggered, a)
	}
	mu.Unlock()
	var failure *armed
	for _, a := range triggered {
		switch a.Kind {
		case Delay:
			time.Sleep(a.Delay)
		default:
			if failure == nil {
				failure = a
			}
		}
	}
	if failure == nil {
		return nil
	}
	if failure.Kind == Panic {
		panic(fmt.Sprintf("faultinject: injected panic at %s", point))
	}
	if failure.Err != nil {
		return failure.Err
	}
	return fmt.Errorf("faultinject: injected error at %s", point)
}
