package main

// Measurement helpers: percentiles under the tail rule, error accounting,
// process CPU and heap sampling, and the result line.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// samples is a set of latencies in seconds.
type samples []float64

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between closest ranks, or NaN when there are no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func (s samples) median() float64 { return s.quantile(0.5) }

// tail returns the q-quantile only when at least minTail samples lie
// beyond it; ok is false otherwise.
func (s samples) tail(q float64) (v float64, ok bool) {
	if float64(len(s))*(1-q) < minTail-1e-9 {
		return 0, false
	}
	return s.quantile(q), true
}

// offHeap maps memory outside the Go heap for latency samples, so that
// the benchmark's own bookkeeping neither counts in peak_heap_mb nor
// paces the garbage collector. Pages become resident only as samples
// arrive.
type offHeap struct {
	mu   sync.Mutex
	maps [][]byte
}

// samples returns an empty slice with room for n samples. Appending past
// n, or a failed mapping, puts the samples on the Go heap instead, which
// stays correct.
func (o *offHeap) samples(n int) samples {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	o.mu.Lock()
	o.maps = append(o.maps, b)
	o.mu.Unlock()
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)[:0]
}

// release unmaps the memory of every slice samples returned; none of
// them may be used afterwards.
func (o *offHeap) release() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, b := range o.maps {
		syscall.Munmap(b)
	}
	o.maps = nil
}

// tally counts outcomes against attempts. Every attempted operation is
// either good or lands in exactly one failure bucket.
type tally struct {
	attempted int
	failed    int // transport error, unexpected status or invariant broken
	shed      int // refused by admission control (429/503)
	wrongTier int // answered from a cache tier the workload did not expect
	wrongByte int // answered with bytes that differ from the reference
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.shed += o.shed
	t.wrongTier += o.wrongTier
	t.wrongByte += o.wrongByte
}

// bad is the number of attempts that did not yield a verified answer.
func (t tally) bad() int { return t.failed + t.shed + t.wrongTier + t.wrongByte }

// errorRate is bad / attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.bad()) / float64(t.attempted)
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procSnap is a point-in-time reading of process counters.
type procSnap struct {
	wall    time.Time
	cpu     float64
	gcs     uint32
	pauseNs uint64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{wall: time.Now(), cpu: cpuSeconds(), gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// procDelta is the change of the process counters over a phase.
type procDelta struct {
	wall, cpu float64
	gcs       int
	pauseMs   float64
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		wall:    b.wall.Sub(a.wall).Seconds(),
		cpu:     b.cpu - a.cpu,
		gcs:     int(b.gcs - a.gcs),
		pauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}

// heapSampler records the peak of the live Go heap objects while it runs.
type heapSampler struct {
	done chan struct{} // closed by stopMB
	wg   sync.WaitGroup
	peak uint64 // written by the sampler, read after wg.Wait
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler samples the heap every millisecond until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.done)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) line() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and plain types reach here
	}
	return string(data)
}

// report collects metrics in insertion order for the human-readable
// table and the result line.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// latency records a median (and p99 when the tail rule allows) of s in
// milliseconds under prefix_p50_ms / prefix_p99_ms, noting the sample
// count.
func (r *report) latency(prefix string, s samples) {
	r.set(prefix+"_p50_ms", s.median()*1e3, "ms")
	r.notes[prefix+"_p50_ms"] = fmt.Sprintf("n=%d", len(s))
	if v, ok := s.tail(0.99); ok {
		r.set(prefix+"_p99_ms", v*1e3, "ms")
		r.notes[prefix+"_p99_ms"] = fmt.Sprintf("n=%d", len(s))
	} else {
		r.notes[prefix+"_p99_ms"] = fmt.Sprintf("not reported: n=%d, needs %d", len(s), minTail*100)
	}
}

// pick returns the named metrics for the result line.
func (r *report) pick(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = r.metrics[n]
	}
	return out
}

// print writes the human-readable table to standard output.
func (r *report) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-32s %16.6f %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	var unset []string
	for n := range r.notes {
		if _, ok := r.metrics[n]; !ok {
			unset = append(unset, n)
		}
	}
	sort.Strings(unset)
	for _, n := range unset {
		fmt.Printf("  %-32s %16s %-6s %s\n", n, "-", "", r.notes[n])
	}
}
