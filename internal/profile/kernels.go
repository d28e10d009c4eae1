package profile

import (
	"math"
	"sort"
	"strconv"

	"efes/internal/relational"
)

// This file holds the helpers the sharded kernels (shard.go) share: the
// coercion classifier and row-path fallback, the finishers that turn
// merged counts into Distinct, Constancy and TopK, and the bounded top-k
// heap.

// impossibleCoercion reports whether no non-NULL canonical value of type
// src can coerce to dst (the Coerce switch has no case for the pair), so
// the whole column can be classified without per-row error construction.
func impossibleCoercion(src, dst relational.Type) bool {
	switch src {
	case relational.Integer, relational.Float:
		return dst == relational.Bool || dst == relational.Time
	case relational.Bool:
		return dst == relational.Integer || dst == relational.Float || dst == relational.Time
	case relational.Time:
		return dst == relational.Integer || dst == relational.Float || dst == relational.Bool
	}
	return false
}

// coercedFallback materializes the column and replicates the row path:
// coerce every value, drop failures, profile the survivors.
func coercedFallback(table, column string, vec *relational.ColumnVector, typ relational.Type) (*ColumnStats, int) {
	n := vec.Len()
	coerced := make([]relational.Value, 0, n)
	incompatible := 0
	for i := 0; i < n; i++ {
		cv, err := relational.Coerce(typ, vec.Value(i))
		if err != nil {
			incompatible++
			continue
		}
		coerced = append(coerced, cv)
	}
	return Values(table, column, typ, coerced), incompatible
}

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

// boolToString profiles a boolean column rendered as strings.
//
//efes:hot
func boolToString(table, column string, vec *relational.ColumnVector) *ColumnStats {
	bools, nulls := vec.Bools(), vec.Nulls()
	strs := make([]string, 0, 2)
	occ := make([]int, 0, 2)
	codes := make([]int32, len(bools))
	tIdx, fIdx := int32(-1), int32(-1)
	for i, x := range bools {
		if nulls.Get(i) {
			continue
		}
		if x {
			if tIdx < 0 {
				tIdx = int32(len(strs))
				strs = append(strs, "true")
				occ = append(occ, 0)
			}
			occ[tIdx]++
			codes[i] = tIdx
		} else {
			if fIdx < 0 {
				fIdx = int32(len(strs))
				strs = append(strs, "false")
				occ = append(occ, 0)
			}
			occ[fIdx]++
			codes[i] = fIdx
		}
	}
	cs := newStats(table, column, relational.String, vec.Len(), vec.NullCount())
	stringKernelDictSharded(cs, strs, occ, codes, nulls, 1)
	return cs
}

// floatKey keys a float for distinct counting: its bit pattern with NaNs
// canonicalized so that every NaN payload collapses to the single "NaN"
// rendering. Shared with the columnar substrate (relational.FloatKey).
func floatKey(x float64) uint64 { return relational.FloatKey(x) }

// finishInts derives Distinct, Constancy and TopK from a typed integer
// count map. Values are rendered only when the top-k heap needs them.
//
//efes:hot
func finishInts(cs *ColumnStats, cnt map[int64]int, nonNull int) {
	cs.Distinct = len(cnt)
	mult := make(map[int]int)
	tk := newTopK()
	var cur int64
	lazy := func() string { return strconv.FormatInt(cur, 10) }
	for x, n := range cnt {
		mult[n]++
		cur = x
		tk.consider(n, lazy)
	}
	cs.Constancy = constancyFromMult(mult, len(cnt), nonNull)
	finishTopK(cs, tk, nonNull)
}

// finishFloats is finishInts for bit-keyed float count maps.
//
//efes:hot
func finishFloats(cs *ColumnStats, cnt map[uint64]int, nonNull int) {
	cs.Distinct = len(cnt)
	mult := make(map[int]int)
	tk := newTopK()
	var cur uint64
	lazy := func() string { return strconv.FormatFloat(math.Float64frombits(cur), 'g', -1, 64) }
	for b, n := range cnt {
		mult[n]++
		cur = b
		tk.consider(n, lazy)
	}
	cs.Constancy = constancyFromMult(mult, len(cnt), nonNull)
	finishTopK(cs, tk, nonNull)
}

// finishBools derives the count statistics of a boolean view.
func finishBools(cs *ColumnStats, nTrue, nFalse, nonNull int) {
	mult := make(map[int]int)
	tk := newTopK()
	distinct := 0
	if nTrue > 0 {
		distinct++
		mult[nTrue]++
		tk.considerString(nTrue, "true")
	}
	if nFalse > 0 {
		distinct++
		mult[nFalse]++
		tk.considerString(nFalse, "false")
	}
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
}

// finishStringCounts derives the count statistics from a rendered-value
// count map (timestamp views).
//
//efes:hot
func finishStringCounts(cs *ColumnStats, cnt map[string]int, nonNull int) {
	cs.Distinct = len(cnt)
	mult := make(map[int]int)
	tk := newTopK()
	for s, n := range cnt {
		mult[n]++
		tk.considerString(n, s)
	}
	cs.Constancy = constancyFromMult(mult, len(cnt), nonNull)
	finishTopK(cs, tk, nonNull)
}

// finishNumeric fills the numeric statistics from the dense row-order
// value vector, using the seed's own helpers so the float operation
// sequence is identical by construction.
func finishNumeric(cs *ColumnStats, xs []float64) {
	if len(xs) == 0 {
		return
	}
	cs.HasNumeric = true
	cs.Mean = distOf(xs)
	cs.Min, cs.Max = minMax(xs)
	cs.NumHist = histogramOf(xs, cs.Min, cs.Max)
}

// finishTopK sorts the heap's survivors with the seed comparator and
// computes the coverage share.
func finishTopK(cs *ColumnStats, tk *topK, nonNull int) {
	cs.TopK = tk.sorted()
	covered := 0
	for _, vc := range cs.TopK {
		covered += vc.Count
	}
	if nonNull > 0 {
		cs.TopKCoverage = float64(covered) / float64(nonNull)
	}
}

// constancyFromMult computes the seed's constancy from a count multiset
// (count -> number of distinct values with that count). The seed sums
// -p*log2(p) over entries sorted (count desc, value asc); equal counts
// yield identical addends, so walking the count groups in descending
// order reproduces the identical float sequence. The logarithm is taken
// once per group, and the subtraction keeps the seed's operands and
// their order, so each term is rounded (or fused) exactly as the seed's
// h -= p * math.Log2(p).
//
//efes:hot
func constancyFromMult(mult map[int]int, distinct, nonNull int) float64 {
	if nonNull == 0 || distinct <= 1 {
		return 1
	}
	counts := make([]int, 0, len(mult))
	for c := range mult {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(nonNull)
		l := math.Log2(p)
		for k := 0; k < mult[c]; k++ {
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
