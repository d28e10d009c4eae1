package profile

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"efes/internal/fanout"
	"efes/internal/relational"
)

// This file holds the profiling kernels: fused statistics computed over
// the columnar substrate (relational.ColumnVector) as mergeable per-chunk
// partial summaries by a pool of workers, reduced in chunk index order.
// There is one kernel per column type and, apart from intStringView, none
// per coercion: a column seen through another type is profiled as the
// vector relational.Coerced derives, so only internal/relational knows
// which values convert and how they render. Every kernel is
// bit-identical to Values, the seed row-path implementation, which stays
// in stats.go as the test oracle. The identity arguments, per statistic:
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
// Sharding preserves each of these:
//
//   - Per-chunk partials hold only order-insensitive aggregates (sorted
//     value runs for the numeric kernels, integer count maps elsewhere,
//     true/false tallies, char tallies) plus the chunk's dense row-order
//     float values. Merging sums the integer counts of equal values (any
//     order — integer addition is exact) and concatenates the dense
//     vectors in chunk index order, reproducing the exact row-order
//     sequence the seed builds.
//   - An integer column whose values span at most denseSpanPerRow values
//     per row is not sharded: one dense count over the whole column
//     (denseCount) emits the ascending (value, count) stream the merge of
//     its sorted runs would, into the same accumulators (finishCounts).
//     The choice depends on the data alone, never on the worker count.
//   - Every float reduction (distOf, minMax, histogramOf, the two-pass
//     string-length loop) then runs sequentially over the merged data
//     with the seed's own helpers, so the float operation sequence is
//     identical by construction — at any worker count, including one.
//   - The top-k selection is order-independent (strict total order,
//     bounded heap), so merging per-shard survivors and reselecting
//     yields the seed's exact set.
//
// String columns are where fusion pays most: each distinct string is
// processed once — pattern, rune count, character tallies — weighted by
// its dictionary count, instead of once per row.
//
// The chunks run through fanout.Run, on up to workers goroutines or
// inline on the caller's at one worker or one chunk. Each chunk writes
// only its own slot, preallocated before the fan-out, so the kernels
// are race-clean without locks. A chunk body cannot fail, so the
// kernels drop Run's error, which is always nil.

// chunkCount returns the number of relational.ChunkSize spans covering n
// elements.
func chunkCount(n int) int {
	return (n + relational.ChunkSize - 1) / relational.ChunkSize
}

// chunkSpan returns the half-open element range [lo, hi) of chunk k.
func chunkSpan(k, n int) (lo, hi int) {
	lo = k * relational.ChunkSize
	hi = lo + relational.ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// FromVectorSharded profiles a column from its columnar representation
// with per-chunk kernels fanned out over workers goroutines. The result
// is bit-identical to profiling the row view with Values at any worker
// count.
func FromVectorSharded(table, column string, vec *relational.ColumnVector, workers int) *ColumnStats {
	cs := newStats(table, column, vec.Type(), vec.Len(), vec.NullCount())
	switch vec.Type() {
	case relational.String:
		stringKernelDictSharded(cs, vec.Dict(), vec.Counts(), vec.Codes(), vec.Nulls(), workers)
	case relational.Integer:
		intKernelSharded(cs, vec.Ints(), vec.Nulls(), workers)
	case relational.Float:
		floatKernelSharded(cs, vec.Floats(), vec.Nulls(), workers)
	case relational.Bool:
		boolKernelSharded(cs, vec.Bools(), vec.Nulls(), workers)
	case relational.Time:
		timeKernel(cs, vec)
	}
	return cs
}

// FromVectorCoercedSharded profiles a column viewed through a coercion
// target type: the columnar equivalent of the Profiler's ColumnCoerced
// view, bit-identical to the row path at any worker count. It profiles
// the view relational.Coerced derives, which keeps the NULLs and drops
// the values that do not convert; their count is the second return. An
// integer column viewed as text is the exception: intStringView derives
// that view from the column's raw profile without rendering a row.
func FromVectorCoercedSharded(table, column string, vec *relational.ColumnVector, typ relational.Type, workers int) (*ColumnStats, int) {
	if vec.Type() == relational.Integer && typ == relational.String {
		return intStringView(table, column, vec, FromVectorSharded(table, column, vec, workers)), 0
	}
	view, dropped := vec.Coerced(typ)
	return FromVectorSharded(table, column, view, workers), dropped
}

// concatChunks stitches per-chunk dense vectors back into one row-order
// vector (chunk index order = row order).
func concatChunks(parts [][]float64, total int) []float64 {
	xs := make([]float64, 0, total)
	for _, p := range parts {
		xs = append(xs, p...)
	}
	return xs
}

// valueRuns is one chunk's sorted run-length summary of a typed column:
// distinct values in ascending order with their in-chunk counts. Runs
// are the numeric kernels' mergeable per-chunk summary — merging is a
// sequential multi-way merge that sums the counts of equal heads, so no
// global hash table is ever built. Counts are order-independent, so any
// merge order yields the same totals; the finish accumulators
// (finishCounts) are themselves feed-order-independent, which is what
// makes the whole pipeline bit-identical to a count map over the whole
// column.
type valueRuns[K cmp.Ordered] struct {
	vals []K
	cnts []int32
}

// mergeRuns walks all chunks' sorted runs in ascending value order and
// emits each distinct value once with its summed count. A small binary
// min-heap over the chunk cursors keeps the merge O(total runs × log
// chunks) with strictly sequential memory access — the cache-friendly
// replacement for folding per-chunk hash maps into one giant map.
//
//efes:hot
func mergeRuns[K cmp.Ordered](parts []valueRuns[K], emit func(v K, n int)) {
	heap := make([]int32, 0, len(parts)) //efes:bounded one entry per chunk
	pos := make([]int32, len(parts))
	head := func(p int32) K { return parts[p].vals[pos[p]] }
	less := func(a, b int32) bool { return head(a) < head(b) }
	siftDown := func(i int32) {
		n := int32(len(heap))
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && less(heap[l], heap[min]) {
				min = l
			}
			if r < n && less(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for p := range parts {
		if len(parts[p].vals) > 0 {
			heap = append(heap, int32(p))
		}
	}
	for i := int32(len(heap))/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		v := head(heap[0])
		n := 0
		for len(heap) > 0 && head(heap[0]) == v {
			p := heap[0]
			n += int(parts[p].cnts[pos[p]])
			pos[p]++
			if int(pos[p]) == len(parts[p].vals) {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			siftDown(0)
		}
		emit(v, n)
	}
}

// sortedRuns sorts a chunk's values in place and run-length encodes
// them: vals' prefix keeps one entry per distinct value, cnts holds the
// matching run lengths.
//
//efes:hot
func sortedRuns[K cmp.Ordered](vals []K) valueRuns[K] {
	slices.Sort(vals)
	cnts := make([]int32, 0, len(vals))
	w := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		vals[w] = vals[i]
		cnts = append(cnts, int32(j-i))
		w++
		i = j
	}
	return valueRuns[K]{vals: vals[:w], cnts: cnts}
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

// intKernelSharded profiles an integer column. The numeric statistics
// read the non-NULL values in row order with the seed's own helpers: the
// vector itself when it has no NULLs, else one compacted copy. The
// distinct values and their counts come from one of two sources, chosen
// once per column from the data alone, never from the worker count: a
// column whose values span at most denseSpanPerRow values per row is
// counted densely in one pass (denseCount), any other is sorted in
// per-chunk runs fanned out over workers and merged (mergeRuns). Both
// emit the same ascending (value, count) stream into finishCounts.
//
//efes:hot
func intKernelSharded(cs *ColumnStats, ints []int64, nulls *relational.Bitmap, workers int) {
	if cs.Nulls > 0 {
		vals := make([]int64, 0, cs.Rows-cs.Nulls)
		for i, v := range ints {
			if !nulls.Get(i) {
				vals = append(vals, v)
			}
		}
		ints = vals
	}
	mn, mx := finishNumeric(cs, ints)
	render := func(v int64) string { return strconv.FormatInt(v, 10) }
	// uint64 subtraction is exact for any int64 pair under two's
	// complement, and the bound 8 × rows cannot overflow, so the test is
	// overflow-safe even for a span of 2⁶⁴−1.
	if span := uint64(mx) - uint64(mn); span < denseSpanPerRow*uint64(len(ints)) {
		finishCounts(cs, len(ints), render, func(emit func(int64, int)) { denseCount(ints, mn, span, emit) })
		return
	}
	chunks := chunkCount(len(ints))
	runs := make([]valueRuns[int64], chunks)
	_ = fanout.Run(chunks, workers, func(k int) error {
		lo, hi := chunkSpan(k, len(ints))
		runs[k] = sortedRuns(slices.Clone(ints[lo:hi]))
		return nil
	})
	finishCounts(cs, len(ints), render, func(emit func(int64, int)) { mergeRuns(runs, emit) })
}

// floatKernelSharded profiles a float column over per-chunk partials,
// with the same sorted-run summaries as intKernelSharded (keys are
// canonical bit patterns). With no NULLs the typed vector itself is the
// dense row-order vector (zero copies).
//
//efes:hot
func floatKernelSharded(cs *ColumnStats, floats []float64, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(floats))
	runs := make([]valueRuns[uint64], chunks)
	var xss [][]float64
	if cs.Nulls > 0 {
		xss = make([][]float64, chunks)
	}
	_ = fanout.Run(chunks, workers, func(k int) error {
		lo, hi := chunkSpan(k, len(floats))
		keys := make([]uint64, 0, hi-lo)
		if xss == nil {
			// No NULLs: the typed vector itself serves as the dense
			// row-order vector, so only the keys are collected.
			for i := lo; i < hi; i++ {
				keys = append(keys, relational.FloatKey(floats[i]))
			}
			runs[k] = sortedRuns(keys)
			return nil
		}
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			keys = append(keys, relational.FloatKey(floats[i]))
			xs = append(xs, floats[i])
		}
		runs[k] = sortedRuns(keys)
		xss[k] = xs
		return nil
	})
	render := func(b uint64) string { return strconv.FormatFloat(math.Float64frombits(b), 'g', -1, 64) }
	finishCounts(cs, nonNull, render, func(emit func(uint64, int)) { mergeRuns(runs, emit) })
	if xss == nil {
		finishNumeric(cs, floats)
	} else {
		finishNumeric(cs, concatChunks(xss, nonNull))
	}
}

// boolKernelSharded profiles a boolean column over per-chunk partials.
//
//efes:hot
func boolKernelSharded(cs *ColumnStats, bools []bool, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(bools))
	trues := make([]int, chunks)
	falses := make([]int, chunks)
	xss := make([][]float64, chunks)
	_ = fanout.Run(chunks, workers, func(k int) error {
		lo, hi := chunkSpan(k, len(bools))
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			if bools[i] {
				trues[k]++
				xs = append(xs, 1)
			} else {
				falses[k]++
				xs = append(xs, 0)
			}
		}
		xss[k] = xs
		return nil
	})
	nTrue, nFalse := 0, 0
	for k := 0; k < chunks; k++ {
		nTrue += trues[k]
		nFalse += falses[k]
	}
	finishBools(cs, nTrue, nFalse, nonNull)
	finishNumeric(cs, concatChunks(xss, nonNull))
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

// stringPartial is one dictionary shard's contribution to the fused
// string kernel. Runes below utf8.RuneSelf are tallied in an array and
// the rest in a map, and patterns are counted through an index into
// pats, so a shard allocates once per distinct pattern rather than once
// per dictionary entry.
type stringPartial struct {
	patIdx     map[string]int
	pats       []ValueCount
	ascii      [utf8.RuneSelf]int
	charCounts map[rune]int
	totalChars int
	mult       multiset
	distinct   int
	tk         *topK
}

// stringKernelDictSharded is the fused string kernel, sharded over
// dictionary entries: each worker owns a contiguous dict range (disjoint
// runeLens writes) and computes patterns, character tallies, rune
// lengths, the distinct count, the constancy count-multiset and the
// top-k, each distinct string once, weighted by its occurrence count.
// Partial tallies merge by integer sums, and the row-order two-pass
// string-length accumulation stays sequential so its float sequence
// matches the seed exactly. It serves string columns and the text views
// relational.Coerced derives from the other types.
//
//efes:hot
func stringKernelDictSharded(cs *ColumnStats, strs []string, occ []int, codes []int32, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(strs))
	runeLens := make([]float64, len(strs))
	parts := make([]stringPartial, chunks)
	_ = fanout.Run(chunks, workers, func(k int) error {
		lo, hi := chunkSpan(k, len(strs))
		p := &parts[k]
		p.patIdx = make(map[string]int)
		p.charCounts = make(map[rune]int)
		p.tk = newTopK()
		var buf []byte
		for c := lo; c < hi; c++ {
			n := occ[c]
			p.distinct++
			p.mult.add(n, 1)
			p.tk.considerString(n, strs[c])
			buf = appendPattern(buf[:0], strs[c])
			//lint:ignore hotalloc a map index with a converted []byte key does not allocate
			i, seen := p.patIdx[string(buf)]
			if !seen {
				//lint:ignore hotalloc one string per distinct pattern: the key outlives the reused buffer
				pat := string(buf)
				i = len(p.pats)
				p.patIdx[pat] = i
				//lint:ignore hotalloc grows to the shard's distinct pattern count, amortized
				p.pats = append(p.pats, ValueCount{Value: pat})
			}
			p.pats[i].Count += n
			rl := 0
			for _, r := range strs[c] {
				if r < utf8.RuneSelf {
					p.ascii[r] += n
				} else {
					p.charCounts[r] += n
				}
				rl++
			}
			p.totalChars += n * rl
			runeLens[c] = float64(rl)
		}
		return nil
	})
	patterns := make(map[string]int)
	var ascii [utf8.RuneSelf]int
	charCounts := make(map[rune]int)
	var mult multiset
	totalChars, distinct := 0, 0
	tk := newTopK()
	for k := range parts {
		p := &parts[k]
		distinct += p.distinct
		totalChars += p.totalChars
		for _, pc := range p.pats {
			patterns[pc.Value] += pc.Count
		}
		for r, n := range p.ascii {
			ascii[r] += n
		}
		for r, n := range p.charCounts {
			charCounts[r] += n
		}
		mult.merge(&p.mult)
		for _, vc := range p.tk.h {
			tk.considerString(vc.Count, vc.Value)
		}
	}
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(&mult, distinct, nonNull)
	cs.Patterns = sortedCounts(patterns)
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
