package profile

import (
	"math"
	"sort"
	"strings"

	"efes/internal/relational"
)

// This file holds the helpers the sharded kernels (shard.go) share: the
// finishers that turn merged counts into Distinct, Constancy and TopK,
// and the bounded top-k heap.

// newStats seeds a ColumnStats with the row-count statistics shared by
// every kernel.
func newStats(table, column string, typ relational.Type, rows, nulls int) *ColumnStats {
	cs := &ColumnStats{Table: table, Column: column, Type: typ, Rows: rows, Nulls: nulls}
	if rows > 0 {
		cs.Fill = float64(rows-nulls) / float64(rows)
	}
	cs.Patterns = []ValueCount{}
	return cs
}

// finishBools derives the count statistics of a boolean view.
func finishBools(cs *ColumnStats, nTrue, nFalse, nonNull int) {
	var mult multiset
	tk := newTopK()
	distinct := 0
	if nTrue > 0 {
		distinct++
		mult.add(nTrue, 1)
		tk.considerString(nTrue, "true")
	}
	if nFalse > 0 {
		distinct++
		mult.add(nFalse, 1)
		tk.considerString(nFalse, "false")
	}
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(&mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
}

// finishNumeric fills the numeric statistics from the dense row-order
// value vector, using the seed's own helpers so the float operation
// sequence is identical by construction, and returns the least and
// greatest value (zero for an empty vector).
func finishNumeric[T number](cs *ColumnStats, xs []T) (lo, hi T) {
	if len(xs) == 0 {
		return lo, hi
	}
	lo, hi = minMax(xs)
	cs.HasNumeric = true
	cs.Mean = distOf(xs)
	cs.Min, cs.Max = float64(lo), float64(hi)
	cs.NumHist = histogramOf(xs, cs.Min, cs.Max)
	return lo, hi
}

// finishTopK sorts the heap's survivors with the seed comparator, copies
// their values, and computes the coverage share. A value sliced from a
// dictionary shares that dictionary's one backing string, so without
// the copy a memoized profile would keep the whole dictionary alive.
func finishTopK(cs *ColumnStats, tk *topK, nonNull int) {
	cs.TopK = tk.sorted()
	covered := 0
	for i := range cs.TopK {
		cs.TopK[i].Value = strings.Clone(cs.TopK[i].Value)
		covered += cs.TopK[i].Count
	}
	if nonNull > 0 {
		cs.TopKCoverage = float64(covered) / float64(nonNull)
	}
}

// multiset is a count multiset: for each count n, how many distinct
// values occur n times. Counts below len(small), nearly every count of a
// high-cardinality column, are tallied in an array and the rest in a map.
type multiset struct {
	small [64]int
	large map[int]int
}

// add records k more distinct values that occur n times.
func (m *multiset) add(n, k int) {
	if n < len(m.small) {
		m.small[n] += k
		return
	}
	if m.large == nil {
		m.large = make(map[int]int)
	}
	m.large[n] += k
}

// merge adds o's tallies to m.
func (m *multiset) merge(o *multiset) {
	for n, k := range o.small {
		m.small[n] += k
	}
	for n, k := range o.large {
		m.add(n, k)
	}
}

// constancyFromMult computes the seed's constancy from a count multiset.
// The seed sums -p*log2(p) over entries sorted (count desc, value asc);
// equal counts yield identical addends, so walking the count groups in
// descending order reproduces the identical float sequence. The
// logarithm is taken once per group, and the subtraction keeps the
// seed's operands and their order, so each term is rounded (or fused)
// exactly as the seed's h -= p * math.Log2(p).
//
//efes:hot
func constancyFromMult(mult *multiset, distinct, nonNull int) float64 {
	if nonNull == 0 || distinct <= 1 {
		return 1
	}
	counts := make([]int, 0, len(mult.large)+8)
	for c, k := range mult.small {
		if k > 0 {
			counts = append(counts, c)
		}
	}
	for c := range mult.large {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(nonNull)
		l := math.Log2(p)
		var k int
		if c < len(mult.small) {
			k = mult.small[c]
		} else {
			k = mult.large[c]
		}
		for ; k > 0; k-- {
			h -= p * l
		}
	}
	hmax := math.Log2(float64(nonNull))
	if hmax == 0 {
		return 1
	}
	v := 1 - h/hmax
	if v < 0 {
		return 0
	}
	return v
}

// topK selects the TopKSize best entries under the seed ordering
// (count desc, value asc) with a bounded min-heap whose root is the worst
// kept entry. The ordering is a strict total order (values are distinct),
// so the selected set — and, after the final sort, the result slice — is
// independent of insertion order.
type topK struct {
	h []ValueCount
}

func newTopK() *topK {
	return &topK{h: make([]ValueCount, 0, TopKSize)}
}

// vcWorse reports whether a ranks strictly below b in the seed ordering.
func vcWorse(a, b ValueCount) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Value > b.Value
}

// considerString offers an entry whose rendering is already at hand.
func (t *topK) considerString(count int, value string) {
	if len(t.h) < TopKSize {
		t.h = append(t.h, ValueCount{Value: value, Count: count})
		t.up(len(t.h) - 1)
		return
	}
	if count < t.h[0].Count || (count == t.h[0].Count && value >= t.h[0].Value) {
		return
	}
	t.h[0] = ValueCount{Value: value, Count: count}
	t.down(0)
}

// consider offers an entry whose rendering is deferred: value is called
// only if the entry can enter the heap (a count strictly below the
// current worst never renders).
func (t *topK) consider(count int, value func() string) {
	if len(t.h) < TopKSize {
		t.h = append(t.h, ValueCount{Value: value(), Count: count})
		t.up(len(t.h) - 1)
		return
	}
	if count < t.h[0].Count {
		return
	}
	if count == t.h[0].Count {
		v := value()
		if v >= t.h[0].Value {
			return
		}
		t.h[0] = ValueCount{Value: v, Count: count}
		t.down(0)
		return
	}
	t.h[0] = ValueCount{Value: value(), Count: count}
	t.down(0)
}

func (t *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !vcWorse(t.h[i], t.h[p]) {
			break
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

func (t *topK) down(i int) {
	n := len(t.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && vcWorse(t.h[r], t.h[l]) {
			m = r
		}
		if !vcWorse(t.h[m], t.h[i]) {
			break
		}
		t.h[i], t.h[m] = t.h[m], t.h[i]
		i = m
	}
}

// sorted returns the survivors in the seed's final order.
func (t *topK) sorted() []ValueCount {
	out := t.h
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}
