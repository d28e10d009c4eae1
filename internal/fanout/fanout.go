// Package fanout is the one worker pool of the estimation pipeline
// (DESIGN.md §6). Every parallel level — module detectors, value-fit
// attribute pairs, ProfileDatabase's columns and the experiment grid —
// runs n independent items through Run and gets back what an in-order
// loop over them would return. Every level sizes its pool by the
// caller's worker count, so at one worker nothing runs off the caller's
// goroutine.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Panic is a panic recovered on a worker goroutine and raised again on
// the goroutine that called Run.
type Panic struct {
	// Value is the value the item panicked with.
	Value any
	// Stack is the worker's stack, taken inside its deferred recover,
	// so it holds the frames that panicked.
	Stack []byte
}

// String renders the panic as its value alone, so a message that
// formats a recovered *Panic reads as one that formats the value.
func (p *Panic) String() string { return fmt.Sprint(p.Value) }

// Run calls fn(i) for every i in [0, n) and returns what this loop
// returns:
//
//	for i := 0; i < n; i++ {
//		if err := fn(i); err != nil {
//			return err
//		}
//	}
//
// With one worker or one item, Run is that loop, on the caller's
// goroutine, and allocates nothing. Otherwise up to min(workers, n)
// goroutines take the indexes in ascending order. No index after the
// least failed one starts, and every index before it runs, so once the
// workers have joined, the error returned is that of the first failing
// index; a later index that ran anyway is ignored. fn must write only
// to state its own index owns. A panic in fn is recovered on its worker
// and counts as a failure; after the join the first panic in index
// order is raised again on the caller's goroutine as a *Panic, or as it
// is when it already is one, relayed by a nested Run.
func Run(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	p := &pool{fn: fn, outcomes: make([]outcome, n), failed: n}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := p.take(); ok; i, ok = p.take() {
				if !p.run(i) {
					p.fail(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range p.outcomes {
		if o.panicked != nil {
			panic(o.panicked)
		}
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// pool is the state one Run shares among its workers.
type pool struct {
	fn       func(i int) error
	outcomes []outcome // one per index, written by the worker that ran it

	mu sync.Mutex
	// next is the next index to hand out; failed is the least failed
	// index, or n while none has failed.
	next   int //efes:guardedby mu
	failed int //efes:guardedby mu
}

// outcome is how one index ended.
type outcome struct {
	err      error
	panicked *Panic
}

// take hands out the next index, or reports false once every index
// before the least failed one has been handed out.
func (p *pool) take() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next >= p.failed {
		return 0, false
	}
	p.next++
	return p.next - 1, true
}

// fail records that index i failed.
func (p *pool) fail(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed = min(p.failed, i)
}

// run runs index i and reports whether it succeeded. A panic is
// recovered into the index's outcome, and run then reports false.
func (p *pool) run(i int) (ok bool) {
	o := &p.outcomes[i]
	defer func() {
		if v := recover(); v != nil {
			if relayed, nested := v.(*Panic); nested {
				o.panicked = relayed
			} else {
				o.panicked = &Panic{Value: v, Stack: debug.Stack()}
			}
		}
	}()
	o.err = p.fn(i)
	return o.err == nil
}
