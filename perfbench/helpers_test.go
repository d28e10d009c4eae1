package main

import (
	"errors"
	"math"
	"net/http"
	"testing"

	"efes/internal/persist"
)

func TestQuantileInterpolates(t *testing.T) {
	s := samples{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 4 {
		t.Error("quantile sorted its receiver")
	}
	if !math.IsNaN(samples(nil).median()) {
		t.Error("median of no samples must be NaN")
	}
}

// A p99 is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		s := make(samples, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		if _, ok := s.tail(c.q); ok != c.want {
			t.Errorf("tail(%v) with n=%d reported = %v, want %v", c.q, c.n, ok, c.want)
		}
	}
	s := make(samples, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	if v, _ := s.tail(0.99); math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, want 989.01", v)
	}
}

// Off-heap samples behave as a slice, also once they outgrow their
// mapping.
func TestOffHeapSamples(t *testing.T) {
	var o offHeap
	defer o.release()
	s := o.samples(4)
	if len(s) != 0 || cap(s) != 4 {
		t.Fatalf("len %d cap %d, want 0 and 4", len(s), cap(s))
	}
	for i := 0; i < 6; i++ {
		s = append(s, float64(i))
	}
	if s.median() != 2.5 || s[0] != 0 || s[5] != 5 {
		t.Errorf("samples = %v", s)
	}
	if len(o.maps) != 1 {
		t.Errorf("%d mappings, want 1", len(o.maps))
	}
}

func TestTallyErrorAccounting(t *testing.T) {
	var a tally
	want := []byte("answer")
	check(&a, reply{status: 200, tier: "hit", body: want}, nil, 200, "hit", want)            // good
	check(&a, reply{}, errors.New("connection reset"), 200, "hit", want)                     // failed
	check(&a, reply{status: http.StatusTooManyRequests}, nil, 200, "hit", want)              // shed
	check(&a, reply{status: 500}, nil, 200, "hit", want)                                     // failed
	check(&a, reply{status: 200, tier: "miss", body: want}, nil, 200, "hit", want)           // wrong tier
	check(&a, reply{status: 200, tier: "hit", body: []byte("other")}, nil, 200, "hit", want) // wrong bytes
	if a.attempted != 6 || a.failed != 2 || a.shed != 1 || a.wrongTier != 1 || a.wrongByte != 1 {
		t.Fatalf("tally = %+v", a)
	}
	if a.bad() != 5 || a.errorRate() != 5.0/6 {
		t.Errorf("bad = %d, error rate = %v", a.bad(), a.errorRate())
	}
	var b tally
	verify(&b, []byte("x"), []byte("x"))
	verify(&b, []byte("x"), []byte("y"))
	a.add(b)
	if a.attempted != 8 || a.wrongByte != 2 {
		t.Errorf("after add: %+v", a)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("error rate of nothing attempted must be 0")
	}
}

func TestStatusDeltasAndSums(t *testing.T) {
	before := status{ResultHits: 5, Shed: 1, Cache: &persist.Stats{Hits: 10, Misses: 2, Bytes: 100}}
	after := status{ResultHits: 9, Shed: 1, Cache: &persist.Stats{Hits: 15, Misses: 3, Bytes: 150}}
	d := after.plus(before, -1)
	if d.ResultHits != 4 || d.Shed != 0 || d.Cache.Hits != 5 || d.Cache.Misses != 1 || d.Cache.Bytes != 150 {
		t.Errorf("delta = %+v cache %+v", d, *d.Cache)
	}
	sum := status{}.plus(d, 1).plus(d, 1)
	if sum.ResultHits != 8 || sum.Cache.Hits != 10 || sum.Cache.Bytes != 150 {
		t.Errorf("sum = %+v cache %+v", sum, *sum.Cache)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 10},
		{Name: "serve", Parent: 0, Start: 2, End: 6},
		{Name: "serve", Parent: 0, Start: 4, End: 8}, // overlaps the first child
		{Name: "inner", Parent: 1, Start: 3, End: 4},
		{Name: "late", Parent: 0, Start: 9, End: 12}, // clipped to the parent
		{Name: "other", Parent: -1, Start: 20, End: 21},
	}
	self := selfTimes(spans)
	want := []float64{10 - 6 - 1, 4 - 1, 4, 1, 3, 1}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	if i := r.start(1, "x", -1); i != -1 || r.end(i) != 0 {
		t.Error("nil recorder must record nothing")
	}
	r = newRecorder()
	parent := r.start(7, "iteration", -1)
	child := r.start(7, "stage", parent)
	open := r.start(7, "unfinished", parent)
	r.end(child)
	r.end(parent)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != parent || got[0].ID != 7 || open != 2 {
		t.Errorf("snapshot = %+v", got)
	}
	if got[0].dur() < got[1].dur() {
		t.Error("a parent span cannot be shorter than its child")
	}
}
