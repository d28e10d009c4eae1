package profile

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"efes/internal/relational"
)

// This file holds the profiling kernels: fused statistics computed in one
// pass per column over the columnar substrate (relational.ColumnVector),
// on the calling goroutine. There is one kernel per column type and,
// apart from intStringView, none per coercion: a column seen through
// another type is profiled as the vector relational.Coerced derives, so
// only internal/relational knows which values convert and how they
// render. Every kernel is bit-identical to Values, the seed row-path
// implementation, which stays in stats.go as the test oracle. The
// identity arguments, per statistic:
//
//   - Fill, Distinct, TopKCoverage: integer arithmetic, order-free.
//   - Constancy: the seed sums -p*log2(p) over counts sorted (count desc,
//     value asc). Entries with equal counts contribute identical addends,
//     so summing count-groups in descending count order reproduces the
//     identical float sequence without materializing or sorting the
//     rendered values (constancyFromMult).
//   - Mean/StdDev/Min/Max/Histogram and StringLength: the kernels run the
//     seed's own distOf/minMax/histogramOf over the same values in the
//     same row order the seed appends them (or replicate the two-pass
//     loop verbatim for string lengths). An integer column's helpers read
//     its int64 values in place and convert each to float64 where the
//     seed converts it into its float copy, so every float operation
//     takes the same operands; minMax compares in int64, and the
//     conversion is monotone, so the extremes it converts are the float
//     copy's.
//   - TopK: the seed fully sorts all distinct values by (count desc,
//     value asc) and truncates to TopKSize. That ordering is a strict
//     total order (values are distinct), so the top-K set is unique and a
//     bounded min-heap selects it regardless of iteration order; the K
//     survivors are then sorted with the seed's comparator.
//   - Distinct values of numeric columns are keyed by their typed value
//     (int64, or float64 bits with all NaNs canonicalized) instead of the
//     rendered string; rendering is injective on non-NaN values and
//     collapses every NaN to "NaN", so the key spaces are isomorphic.
//
// A numeric column's distinct values and their counts come from one
// ascending (value, count) stream: one sort of the column's keys, or,
// for an integer column of narrow span, one dense count. The finish
// accumulators (finishCounts) are independent of the order they are fed
// in, so either source yields a count map's statistics.
//
// String columns are where fusion pays most: each distinct string is
// processed once — pattern, rune count, character tallies — weighted by
// its dictionary count, instead of once per row.

// FromVector profiles a column from its columnar representation. The
// result is bit-identical to profiling the row view with Values.
func FromVector(table, column string, vec *relational.ColumnVector) *ColumnStats {
	cs := newStats(table, column, vec.Type(), vec.Len(), vec.NullCount())
	switch vec.Type() {
	case relational.String:
		stringKernel(cs, vec.Dict(), vec.Counts(), vec.Codes(), vec.Nulls())
	case relational.Integer:
		intKernel(cs, vec.Ints(), vec.Nulls())
	case relational.Float:
		floatKernel(cs, vec.Floats(), vec.Nulls())
	case relational.Bool:
		boolKernel(cs, vec.Bools(), vec.Nulls())
	case relational.Time:
		timeKernel(cs, vec)
	}
	return cs
}

// FromVectorCoerced profiles a column viewed through a coercion target
// type: the columnar equivalent of the Profiler's ColumnCoerced view,
// bit-identical to the row path. It profiles the view relational.Coerced
// derives, which keeps the NULLs and drops the values that do not
// convert; their count is the second return. An integer column viewed as
// text is the exception: intStringView derives that view from the
// column's raw profile without rendering a row.
func FromVectorCoerced(table, column string, vec *relational.ColumnVector, typ relational.Type) (*ColumnStats, int) {
	if vec.Type() == relational.Integer && typ == relational.String {
		return intStringView(table, column, vec, FromVector(table, column, vec)), 0
	}
	view, dropped := vec.Coerced(typ)
	return FromVector(table, column, view), dropped
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

// nonNullValues returns the non-NULL values of a typed vector in row
// order: vals itself when the column has no NULL, else one compacted
// copy.
//
//efes:hot
func nonNullValues[T any](cs *ColumnStats, vals []T, nulls *relational.Bitmap) []T {
	if cs.Nulls == 0 {
		return vals
	}
	out := make([]T, 0, cs.Rows-cs.Nulls)
	for i, v := range vals {
		if !nulls.Get(i) {
			out = append(out, v)
		}
	}
	return out
}

// runs walks a sorted slice and emits each distinct value once with the
// length of its run: the ascending (value, count) stream finishCounts
// consumes.
//
//efes:hot
func runs[K cmp.Ordered](sorted []K, emit func(v K, n int)) {
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		emit(sorted[i], j-i)
		i = j
	}
}

// finishCounts feeds an ascending (value, count) stream into the
// accumulators a count map over the whole column would feed: the distinct
// count, Constancy's count multiset and the bounded top-k. Each is
// independent of the order it is fed in, so any source of the stream
// yields the same statistics. render names a value for the top-k and runs
// only for a value that can enter it.
//
//efes:hot
func finishCounts[K int64 | uint64](cs *ColumnStats, nonNull int, render func(K) string, stream func(emit func(v K, n int))) {
	var mult multiset
	tk := newTopK()
	distinct := 0
	var cur K
	lazy := func() string { return render(cur) }
	stream(func(v K, n int) {
		distinct++
		mult.add(n, 1)
		cur = v
		tk.consider(n, lazy)
	})
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(&mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
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
	cs.TopK = sortValueCounts(tk.h)
	covered := 0
	for i := range cs.TopK {
		cs.TopK[i].Value = strings.Clone(cs.TopK[i].Value)
		covered += cs.TopK[i].Count
	}
	if nonNull > 0 {
		cs.TopKCoverage = float64(covered) / float64(nonNull)
	}
}

// denseSpanPerRow bounds the dense count of an integer column: a column
// is counted densely when its non-NULL values span at most this many
// values per non-NULL row. The dense count's one byte per value of the
// span then never exceeds the eight bytes per row of the int64 copy the
// sort path makes.
const denseSpanPerRow = 8

// denseCount counts ints, whose least value is lo and whose greatest is
// lo+span, into one uint8 counter per value of the span and emits the
// ascending (value, count) stream. A counter wraps every 256 occurrences
// and carries them into an overflow map, so a frequent value costs one
// map update per 256 rows.
//
//efes:hot
func denseCount(ints []int64, lo int64, span uint64, emit func(v int64, n int)) {
	counters := make([]uint8, span+1)
	carry := make(map[uint64]int)
	for _, v := range ints {
		i := uint64(v) - uint64(lo)
		counters[i]++
		if counters[i] == 0 {
			carry[i] += 256
		}
	}
	carried := make([]uint64, 0, len(carry))
	for i := range carry {
		carried = append(carried, i)
	}
	slices.Sort(carried)
	carried = append(carried, span+1) // sentinel: past every counter
	next, carried := carried[0], carried[1:]
	for i, c := range counters {
		n := int(c)
		if uint64(i) == next {
			n += carry[next]
			next, carried = carried[0], carried[1:]
		}
		if n > 0 {
			emit(lo+int64(i), n)
		}
	}
}

// intKernel profiles an integer column. The numeric statistics read the
// non-NULL values in row order with the seed's own helpers. The distinct
// values and their counts come from one of two sources, chosen from the
// data alone: a column whose values span at most denseSpanPerRow values
// per row is counted densely (denseCount), any other is sorted once and
// read off in runs. Both emit the same ascending (value, count) stream
// into finishCounts.
//
//efes:hot
func intKernel(cs *ColumnStats, ints []int64, nulls *relational.Bitmap) {
	ints = nonNullValues(cs, ints, nulls)
	mn, mx := finishNumeric(cs, ints)
	render := func(v int64) string { return strconv.FormatInt(v, 10) }
	// uint64 subtraction is exact for any int64 pair under two's
	// complement, and the bound 8 × rows cannot overflow, so the test is
	// overflow-safe even for a span of 2⁶⁴−1.
	if span := uint64(mx) - uint64(mn); span < denseSpanPerRow*uint64(len(ints)) {
		finishCounts(cs, len(ints), render, func(emit func(int64, int)) { denseCount(ints, mn, span, emit) })
		return
	}
	sorted := slices.Clone(ints)
	slices.Sort(sorted)
	finishCounts(cs, len(sorted), render, func(emit func(int64, int)) { runs(sorted, emit) })
}

// floatKernel profiles a float column. Its distinct values are counted
// like a sparse integer column's, by one sort of their canonical bit
// patterns. With no NULLs the typed vector itself is the dense row-order
// vector.
//
//efes:hot
func floatKernel(cs *ColumnStats, floats []float64, nulls *relational.Bitmap) {
	xs := nonNullValues(cs, floats, nulls)
	keys := make([]uint64, len(xs))
	for i, x := range xs {
		keys[i] = relational.FloatKey(x)
	}
	slices.Sort(keys)
	render := func(b uint64) string { return strconv.FormatFloat(math.Float64frombits(b), 'g', -1, 64) }
	finishCounts(cs, len(xs), render, func(emit func(uint64, int)) { runs(keys, emit) })
	finishNumeric(cs, xs)
}

// boolKernel profiles a boolean column: a true/false tally, and the
// values as 1 and 0 for the numeric statistics.
//
//efes:hot
func boolKernel(cs *ColumnStats, bools []bool, nulls *relational.Bitmap) {
	xs := make([]float64, 0, cs.Rows-cs.Nulls)
	nTrue := 0
	for i, b := range bools {
		if nulls.Get(i) {
			continue
		}
		if b {
			nTrue++
			xs = append(xs, 1)
		} else {
			xs = append(xs, 0)
		}
	}
	finishBools(cs, nTrue, len(xs)-nTrue, len(xs))
	finishNumeric(cs, xs)
}

// timeKernel profiles a timestamp column. Timestamps contribute no
// numeric or string statistics in the seed (the Values type switch has
// no time case), only the counts of their renderings: the dictionary of
// the column's text view.
//
//efes:hot
func timeKernel(cs *ColumnStats, vec *relational.ColumnVector) {
	text, _ := vec.Coerced(relational.String)
	nonNull, counts := cs.Rows-cs.Nulls, text.Counts()
	var mult multiset
	tk := newTopK()
	for c, s := range text.Dict() {
		mult.add(counts[c], 1)
		tk.considerString(counts[c], s)
	}
	cs.Distinct = len(counts)
	cs.Constancy = constancyFromMult(&mult, len(counts), nonNull)
	finishTopK(cs, tk, nonNull)
}

// stringKernel is the fused string kernel over dictionary entries: it
// computes patterns, character tallies, rune lengths, the distinct count,
// the constancy count-multiset and the top-k, each distinct string once,
// weighted by its occurrence count. Runes below utf8.RuneSelf are tallied
// in an array and the rest in a map, and patterns are counted through an
// index into pats, so the kernel allocates once per distinct pattern
// rather than once per dictionary entry. Only the two-pass string-length
// accumulation runs per row, in row order, so its float sequence matches
// the seed exactly. It serves string columns and the text views
// relational.Coerced derives from the other types.
//
//efes:hot
func stringKernel(cs *ColumnStats, strs []string, occ []int, codes []int32, nulls *relational.Bitmap) {
	nonNull := cs.Rows - cs.Nulls
	runeLens := make([]float64, len(strs))
	patIdx := make(map[string]int)
	var pats []ValueCount
	var ascii [utf8.RuneSelf]int
	charCounts := make(map[rune]int)
	var mult multiset
	totalChars := 0
	tk := newTopK()
	var buf []byte
	for c, s := range strs {
		n := occ[c]
		mult.add(n, 1)
		tk.considerString(n, s)
		buf = appendPattern(buf[:0], s)
		//lint:ignore hotalloc a map index with a converted []byte key does not allocate
		i, seen := patIdx[string(buf)]
		if !seen {
			//lint:ignore hotalloc one string per distinct pattern: the key outlives the reused buffer
			pat := string(buf)
			i = len(pats)
			patIdx[pat] = i
			//lint:ignore hotalloc grows to the column's distinct pattern count, amortized
			pats = append(pats, ValueCount{Value: pat})
		}
		pats[i].Count += n
		rl := 0
		for _, r := range s {
			if r < utf8.RuneSelf {
				ascii[r] += n
			} else {
				charCounts[r] += n
			}
			rl++
		}
		totalChars += n * rl
		runeLens[c] = float64(rl)
	}
	cs.Distinct = len(strs)
	cs.Constancy = constancyFromMult(&mult, len(strs), nonNull)
	if len(pats) > 0 {
		cs.Patterns = sortValueCounts(pats)
	}
	if totalChars > 0 {
		// Hint the exact distinct rune count: the memo keeps every
		// profile, so an oversized map would stay allocated.
		runes := len(charCounts)
		for _, n := range ascii {
			if n > 0 {
				runes++
			}
		}
		cs.CharHist = make(map[rune]float64, runes)
		for r, n := range ascii {
			if n > 0 {
				cs.CharHist[rune(r)] = float64(n) / float64(totalChars)
			}
		}
		for r, n := range charCounts {
			cs.CharHist[r] = float64(n) / float64(totalChars)
		}
	}
	if nonNull > 0 {
		sum := 0.0
		for i, c := range codes {
			if nulls.Get(i) {
				continue
			}
			sum += runeLens[c]
		}
		mean := sum / float64(nonNull)
		ss := 0.0
		for i, c := range codes {
			if nulls.Get(i) {
				continue
			}
			d := runeLens[c] - mean
			ss += d * d
		}
		cs.StringLength = Dist{Mean: mean, StdDev: math.Sqrt(ss / float64(nonNull))}
	}
	finishTopK(cs, tk, nonNull)
}

// intStringView profiles an integer column viewed as strings, given raw,
// the column's own profile. Canonical decimal rendering is injective and
// top-k ties already break by the rendered string, so raw's Distinct,
// Constancy, TopK and TopKCoverage are the view's. The string statistics
// take one pass over the rows: the patterns are "9" and "-9" by sign,
// and the character histogram is the digit and minus-sign tally. Every
// string length is a small integer, so the row path's float length sum
// is exact in any order and the mean is the character total over the
// non-NULL count; only the variance sum depends on order, and a second
// pass runs it over the rows.
//
//efes:hot
func intStringView(table, column string, vec *relational.ColumnVector, raw *ColumnStats) *ColumnStats {
	ints, nulls := vec.Ints(), vec.Nulls()
	cs := newStats(table, column, relational.String, vec.Len(), vec.NullCount())
	cs.Distinct, cs.Constancy, cs.TopKCoverage = raw.Distinct, raw.Constancy, raw.TopKCoverage
	cs.TopK = slices.Clone(raw.TopK)
	nonNull := cs.Rows - cs.Nulls
	if nonNull == 0 {
		return cs
	}
	t := new(decimalTally)
	for i, x := range ints {
		if !nulls.Get(i) {
			t.add(x)
		}
	}
	patterns := make(map[string]int, 2)
	if n := nonNull - t.minus; n > 0 {
		patterns["9"] = n
	}
	if t.minus > 0 {
		patterns["-9"] = t.minus
	}
	cs.Patterns = sortedCounts(patterns)
	digits := t.digits()
	totalChars := t.minus
	for _, n := range digits {
		totalChars += n
	}
	cs.CharHist = make(map[rune]float64, len(digits)+1)
	if t.minus > 0 {
		cs.CharHist['-'] = float64(t.minus) / float64(totalChars)
	}
	for d, n := range digits {
		if n > 0 {
			cs.CharHist[rune('0'+d)] = float64(n) / float64(totalChars)
		}
	}
	mean := float64(totalChars) / float64(nonNull)
	ss := 0.0
	for i, x := range ints {
		if nulls.Get(i) {
			continue
		}
		d := float64(decimalLen(x)) - mean
		ss += d * d
	}
	cs.StringLength = Dist{Mean: mean, StdDev: math.Sqrt(ss / float64(nonNull))}
	return cs
}

// decimalTally counts the characters of canonical decimal renderings by
// groups of four digits. Cut from its last digit, a rendering's digits
// are interior groups of exactly four, leading zeros included, and one
// leading group of one to four digits without them. A rendering costs
// one division per group, and digits expands each group value of the two
// histograms into its digits once.
type decimalTally struct {
	interior [10000]int
	leading  [10000]int
	minus    int
}

// add tallies the rendering of v.
func (t *decimalTally) add(v int64) {
	u := uint64(v)
	if v < 0 {
		t.minus++
		u = -u // two's complement: exact for MinInt64 too
	}
	for u >= 10000 {
		t.interior[u%10000]++
		u /= 10000
	}
	t.leading[u]++
}

// digits returns the tallied count of each decimal digit.
func (t *decimalTally) digits() [10]int {
	var d [10]int
	for g := range t.interior {
		if n := t.interior[g]; n > 0 {
			d[g%10] += n
			d[g/10%10] += n
			d[g/100%10] += n
			d[g/1000] += n
		}
		if n := t.leading[g]; n > 0 {
			for u := g; ; u /= 10 {
				d[u%10] += n
				if u < 10 {
					break
				}
			}
		}
	}
	return d
}

// pow10 holds the powers of ten a uint64 holds, 10⁰ through 10¹⁹.
var pow10 = [20]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen is the length of strconv.FormatInt(v, 10). Setting the low
// bit of u changes no digit count (no power of ten above 1 is odd) and
// makes 0 read as 1, one digit. For u of bit length L,
// t = (L·1233)>>12 has 10^(t−1) ≤ u < 10^(t+1), so u has t digits, or
// t+1 when u ≥ 10^t. Below 2⁵³ L is read from the exponent of u's exact
// float64 conversion rather than from bits.Len64, whose BSR instruction
// on amd64 would chain each row to the one before through a false
// dependency on its output register.
func decimalLen(v int64) int {
	u, n := uint64(v), 0
	if v < 0 {
		u, n = -u, 1
	}
	u |= 1
	var l int
	if u < 1<<53 {
		l = int(math.Float64bits(float64(u))>>52) - 1022
	} else {
		l = bits.Len64(u)
	}
	t := l * 1233 >> 12
	if u >= pow10[t] {
		t++
	}
	return n + t
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

// sortValueCounts sorts counts of distinct values in the seed order,
// count descending and then value ascending, and returns them.
func sortValueCounts(vcs []ValueCount) []ValueCount {
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].Count != vcs[j].Count {
			return vcs[i].Count > vcs[j].Count
		}
		return vcs[i].Value < vcs[j].Value
	})
	return vcs
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
