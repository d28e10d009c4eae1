package main

// Spans recorded by the traced run. Spans live in memory and are written
// out as JSON when the run ends; nothing inside the program is touched.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or iteration
// share ID; Parent indexes the enclosing span (-1 for a root).
type span struct {
	ID     int64   `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder collects spans from any goroutine. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e6 }

// start opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) start(id int64, name string, parent int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Start: t, End: -1})
	return len(r.spans) - 1
}

// end closes the span opened by start and returns its duration in ms.
func (r *recorder) end(i int) float64 {
	if r == nil || i < 0 {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
	return r.spans[i].dur()
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
