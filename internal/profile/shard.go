package profile

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

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
//   - Mean/StdDev/Min/Max/Histogram and StringLength: the kernels collect
//     the same float64 values in the same row order the seed appends them
//     and run the seed's own distOf/minMax/histogramOf (or replicate the
//     two-pass loop verbatim for string lengths).
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
// Workers race only on disjoint per-chunk slots (one slot per chunk,
// preallocated before the fan-out), so the kernels are race-clean without
// locks; shardRun hands out chunk indexes via an atomic counter.

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

// shardRun invokes fn(k) for every chunk index in [0, chunks), fanning
// out over up to workers goroutines. fn must write only to its own
// chunk's slot. With one worker (or one chunk) everything runs inline on
// the calling goroutine.
func shardRun(chunks, workers int, fn func(k int)) {
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for k := 0; k < chunks; k++ {
			fn(k)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= chunks {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
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
// merge order yields the same totals; the finish accumulators (distinct
// count, count-multiplicity map, bounded top-k under a strict total
// order) are themselves feed-order-independent, which is what makes the
// whole pipeline bit-identical to a count map over the whole column.
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

// intRuns builds one chunk's ascending runs, choosing between two
// strategies by the chunk's value range: when the range is small
// relative to the chunk length (id-like, foreign-key-like and code-like
// columns), a dense counting array replaces the sort — one sequential
// counting pass plus one emission pass instead of an O(n log n) sort.
// Both strategies produce identical runs, so the choice (made per chunk
// from the data alone, never from the worker count) cannot influence
// output.
//
//efes:hot
func intRuns(vals []int64) valueRuns[int64] {
	if len(vals) == 0 {
		return valueRuns[int64]{}
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	// uint64 subtraction is exact for any int64 pair under two's
	// complement, so the span test is overflow-safe.
	if span := uint64(mx) - uint64(mn); span < uint64(4*len(vals)) {
		cnt := make([]int32, span+1)
		for _, v := range vals {
			cnt[uint64(v)-uint64(mn)]++
		}
		cnts := make([]int32, 0, len(vals))
		w := 0
		for i, c := range cnt {
			if c != 0 {
				vals[w] = mn + int64(i)
				cnts = append(cnts, c)
				w++
			}
		}
		return valueRuns[int64]{vals: vals[:w], cnts: cnts}
	}
	return sortedRuns(vals)
}

// finishIntRuns feeds the merged runs into the accumulators a count map
// over the whole column would feed — bit-identical output with no global
// hash table.
//
//efes:hot
func finishIntRuns(cs *ColumnStats, runs []valueRuns[int64], nonNull int) {
	mult := make(map[int]int)
	tk := newTopK()
	distinct := 0
	var cur int64
	lazy := func() string { return strconv.FormatInt(cur, 10) }
	mergeRuns(runs, func(v int64, n int) {
		distinct++
		mult[n]++
		cur = v
		tk.consider(n, lazy)
	})
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
}

// intKernelSharded profiles an integer column over per-chunk partials:
// each chunk reduces its values to ascending runs (intRuns) and the run
// merge recomputes the exact statistics; the numeric statistics then run
// over the dense row-order vector with the seed's own helpers. With no NULLs each chunk writes its
// span of the shared dense vector in place — disjoint [lo, hi) windows,
// so the fan-out stays race-clean without the per-chunk copies.
//
//efes:hot
func intKernelSharded(cs *ColumnStats, ints []int64, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(ints))
	runs := make([]valueRuns[int64], chunks)
	if cs.Nulls == 0 {
		xs := make([]float64, len(ints))
		shardRun(chunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(ints))
			for i := lo; i < hi; i++ {
				xs[i] = float64(ints[i])
			}
			vals := make([]int64, hi-lo)
			copy(vals, ints[lo:hi])
			runs[k] = intRuns(vals)
		})
		finishIntRuns(cs, runs, nonNull)
		finishNumeric(cs, xs)
		return
	}
	xss := make([][]float64, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(ints))
		vals := make([]int64, 0, hi-lo)
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			vals = append(vals, ints[i])
			xs = append(xs, float64(ints[i]))
		}
		runs[k] = intRuns(vals)
		xss[k] = xs
	})
	finishIntRuns(cs, runs, nonNull)
	finishNumeric(cs, concatChunks(xss, nonNull))
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
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(floats))
		keys := make([]uint64, 0, hi-lo)
		if xss == nil {
			// No NULLs: the typed vector itself serves as the dense
			// row-order vector, so only the keys are collected.
			for i := lo; i < hi; i++ {
				keys = append(keys, relational.FloatKey(floats[i]))
			}
			runs[k] = sortedRuns(keys)
			return
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
	})
	mult := make(map[int]int)
	tk := newTopK()
	distinct := 0
	var cur uint64
	lazy := func() string { return strconv.FormatFloat(math.Float64frombits(cur), 'g', -1, 64) }
	mergeRuns(runs, func(b uint64, n int) {
		distinct++
		mult[n]++
		cur = b
		tk.consider(n, lazy)
	})
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
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
	shardRun(chunks, workers, func(k int) {
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
	mult := make(map[int]int)
	tk := newTopK()
	for c, s := range text.Dict() {
		mult[counts[c]]++
		tk.considerString(counts[c], s)
	}
	cs.Distinct = len(counts)
	cs.Constancy = constancyFromMult(mult, len(counts), nonNull)
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
	mult       map[int]int
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
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(strs))
		p := &parts[k]
		p.patIdx = make(map[string]int)
		p.charCounts = make(map[rune]int)
		p.mult = make(map[int]int)
		p.tk = newTopK()
		var buf []byte
		for c := lo; c < hi; c++ {
			n := occ[c]
			p.distinct++
			p.mult[n]++
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
	})
	patterns := make(map[string]int)
	var ascii [utf8.RuneSelf]int
	charCounts := make(map[rune]int)
	mult := make(map[int]int)
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
		for c, n := range p.mult {
			mult[c] += n
		}
		for _, vc := range p.tk.h {
			tk.considerString(vc.Count, vc.Value)
		}
	}
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
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
	var t decimalTally
	for i, x := range ints {
		if !nulls.Get(i) {
			t.add(x, 1)
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
	totalChars := t.minus
	for _, n := range t.digits {
		totalChars += n
	}
	cs.CharHist = make(map[rune]float64, len(t.digits)+1)
	if t.minus > 0 {
		cs.CharHist['-'] = float64(t.minus) / float64(totalChars)
	}
	for d, n := range t.digits {
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

// decimalTally counts the characters of canonical decimal renderings:
// one count per digit and one per minus sign.
type decimalTally struct {
	digits [10]int
	minus  int
}

// add tallies n renderings of v.
func (t *decimalTally) add(v int64, n int) {
	u := uint64(v)
	if v < 0 {
		t.minus += n
		u = -u // two's complement: exact for MinInt64 too
	}
	for {
		t.digits[u%10] += n
		if u < 10 {
			return
		}
		u /= 10
	}
}

// decimalLen is the length of strconv.FormatInt(v, 10).
func decimalLen(v int64) int {
	u, n := uint64(v), 1
	if v < 0 {
		u, n = -u, 2
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}
