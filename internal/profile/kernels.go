package profile

import (
	"math"
	"sort"
	"strconv"
	"time"

	"efes/internal/relational"
)

// This file holds the fused profiling kernels that run over the columnar
// substrate (relational.ColumnVector) instead of the row view. Every
// kernel is bit-identical to Values, the seed row-path implementation,
// which stays in stats.go as the compatibility path and the property-test
// oracle. The identity arguments, per statistic:
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
// String columns are where fusion pays most: each distinct string is
// processed once — pattern, rune count, character tallies — weighted by
// its dictionary count, instead of once per row.

// FromVector profiles a column from its columnar representation. The
// result is bit-identical to profiling the row view with Values.
func FromVector(table, column string, vec *relational.ColumnVector) *ColumnStats {
	cs := newStats(table, column, vec.Type(), vec.Len(), vec.NullCount())
	switch vec.Type() {
	case relational.String:
		stringKernelDict(cs, vec.Dict(), vec.Counts(), vec.Codes(), vec.Nulls())
	case relational.Integer:
		intKernel(cs, vec.Ints(), vec.Nulls())
	case relational.Float:
		floatKernel(cs, vec.Floats(), vec.Nulls())
	case relational.Bool:
		boolKernel(cs, vec.Bools(), vec.Nulls())
	case relational.Time:
		timeKernel(cs, vec.Times(), vec.Nulls())
	}
	return cs
}

// FromVectorCoerced profiles a column viewed through a coercion target
// type: the columnar equivalent of the Profiler's ColumnCoerced view.
// Values that cannot be coerced are dropped and counted (the second
// return); survivors (including NULLs) are profiled under typ. For string
// sources the coercion runs once per distinct dictionary entry instead of
// once per row.
func FromVectorCoerced(table, column string, vec *relational.ColumnVector, typ relational.Type) (*ColumnStats, int) {
	src := vec.Type()
	if typ == src {
		return FromVector(table, column, vec), 0
	}
	if impossibleCoercion(src, typ) {
		// Every non-NULL value fails to coerce; only NULLs survive.
		return Values(table, column, typ, make([]relational.Value, vec.NullCount())), vec.Len() - vec.NullCount()
	}
	switch src {
	case relational.String:
		return coercedFromString(table, column, vec, typ)
	case relational.Integer:
		switch typ {
		case relational.Float:
			return intToFloat(table, column, vec), 0
		case relational.String:
			return intToString(table, column, vec), 0
		}
	case relational.Float:
		switch typ {
		case relational.Integer:
			return floatToInt(table, column, vec)
		case relational.String:
			return floatToString(table, column, vec), 0
		}
	case relational.Bool:
		if typ == relational.String {
			return boolToString(table, column, vec), 0
		}
	}
	// Rare combination (e.g. Time source rendered to String): coerce
	// value by value exactly like the row path.
	return coercedFallback(table, column, vec, typ)
}

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

// stringKernelDict is the fused string kernel: one pass over the
// dictionary computes patterns, character tallies, rune lengths, the
// distinct count, the constancy count-multiset, and the top-k — each
// distinct string processed once, weighted by its occurrence count — and
// two passes over the code vector replicate the seed's row-order string-
// length accumulation. It serves the raw string column and every derived
// to-string view (the derived dictionaries of intToString etc.).
//
//efes:hot
func stringKernelDict(cs *ColumnStats, strs []string, occ []int, codes []int32, nulls *relational.Bitmap) {
	nonNull := cs.Rows - cs.Nulls
	patterns := make(map[string]int)
	charCounts := make(map[rune]int)
	totalChars := 0
	runeLens := make([]float64, len(strs))
	mult := make(map[int]int)
	distinct := 0
	tk := newTopK()
	for c, s := range strs {
		n := occ[c]
		if n == 0 {
			continue // dead dictionary entry (deleted/overwritten rows)
		}
		distinct++
		mult[n]++
		tk.considerString(n, s)
		patterns[Pattern(s)] += n
		rl := 0
		for _, r := range s {
			charCounts[r] += n
			totalChars += n
			rl++
		}
		runeLens[c] = float64(rl)
	}
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	cs.Patterns = sortedCounts(patterns)
	if totalChars > 0 {
		cs.CharHist = make(map[rune]float64, len(charCounts))
		for r, n := range charCounts {
			cs.CharHist[r] = float64(n) / float64(totalChars)
		}
	}
	if nonNull > 0 {
		// Row-order two-pass mean/stddev over rune lengths: the exact
		// float sequence distOf runs over the seed's lengths slice.
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

// intKernel profiles an integer column: one pass builds the typed
// distinct map and the dense numeric vector in row order; the numeric
// statistics then run over the dense vector with the seed's own helpers.
//
//efes:hot
func intKernel(cs *ColumnStats, ints []int64, nulls *relational.Bitmap) {
	nonNull := cs.Rows - cs.Nulls
	cnt := make(map[int64]int)
	xs := make([]float64, 0, nonNull)
	for i, x := range ints {
		if nulls.Get(i) {
			continue
		}
		cnt[x]++
		xs = append(xs, float64(x))
	}
	finishInts(cs, cnt, nonNull)
	finishNumeric(cs, xs)
}

// floatKernel profiles a float column. With no NULLs the typed vector is
// used as the dense numeric vector directly (zero copies).
//
//efes:hot
func floatKernel(cs *ColumnStats, floats []float64, nulls *relational.Bitmap) {
	nonNull := cs.Rows - cs.Nulls
	cnt := make(map[uint64]int)
	var xs []float64
	if cs.Nulls == 0 {
		xs = floats
		for _, x := range floats {
			cnt[floatKey(x)]++
		}
	} else {
		dense := make([]float64, 0, nonNull)
		for i, x := range floats {
			if nulls.Get(i) {
				continue
			}
			cnt[floatKey(x)]++
			dense = append(dense, x)
		}
		xs = dense
	}
	finishFloats(cs, cnt, nonNull)
	finishNumeric(cs, xs)
}

// boolKernel profiles a boolean column.
//
//efes:hot
func boolKernel(cs *ColumnStats, bools []bool, nulls *relational.Bitmap) {
	nonNull := cs.Rows - cs.Nulls
	nTrue, nFalse := 0, 0
	xs := make([]float64, 0, nonNull)
	for i, x := range bools {
		if nulls.Get(i) {
			continue
		}
		if x {
			nTrue++
			xs = append(xs, 1)
		} else {
			nFalse++
			xs = append(xs, 0)
		}
	}
	finishBools(cs, nTrue, nFalse, nonNull)
	finishNumeric(cs, xs)
}

// timeKernel profiles a timestamp column. Timestamps contribute no
// numeric or string statistics in the seed (the Values type switch has no
// time case), only rendered-value counts.
//
//efes:hot
func timeKernel(cs *ColumnStats, times []time.Time, nulls *relational.Bitmap) {
	nonNull := cs.Rows - cs.Nulls
	cnt := make(map[string]int)
	for i, x := range times {
		if nulls.Get(i) {
			continue
		}
		cnt[x.Format(time.RFC3339)]++
	}
	finishStringCounts(cs, cnt, nonNull)
}

// coercedFromString profiles a string column viewed through another type.
// Coercion (parsing) runs once per distinct dictionary entry via the
// typed relational.Parse* helpers — the exact string semantics of the
// row path's relational.Coerce, minus the per-value interface boxing;
// rows whose entry fails to parse are dropped as incompatible.
//
//efes:hot
func coercedFromString(table, column string, vec *relational.ColumnVector, typ relational.Type) (*ColumnStats, int) {
	dict, occ, codes, nulls := vec.Dict(), vec.Counts(), vec.Codes(), vec.Nulls()
	ok := make([]bool, len(dict))
	incompatible := 0
	switch typ {
	case relational.Integer:
		vals := make([]int64, len(dict))
		for c, s := range dict {
			if occ[c] == 0 {
				continue
			}
			n, err := relational.ParseInt(s)
			if err != nil {
				incompatible += occ[c]
				continue
			}
			vals[c], ok[c] = n, true
		}
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		cnt := make(map[int64]int)
		for c := range dict {
			if occ[c] > 0 && ok[c] {
				cnt[vals[c]] += occ[c]
			}
		}
		xs := make([]float64, 0, nonNull)
		for i, c := range codes {
			if nulls.Get(i) || !ok[c] {
				continue
			}
			xs = append(xs, float64(vals[c]))
		}
		finishInts(cs, cnt, nonNull)
		finishNumeric(cs, xs)
		return cs, incompatible
	case relational.Float:
		vals := make([]float64, len(dict))
		for c, s := range dict {
			if occ[c] == 0 {
				continue
			}
			f, err := relational.ParseFloat(s)
			if err != nil {
				incompatible += occ[c]
				continue
			}
			vals[c], ok[c] = f, true
		}
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		cnt := make(map[uint64]int)
		for c := range dict {
			if occ[c] > 0 && ok[c] {
				cnt[floatKey(vals[c])] += occ[c]
			}
		}
		xs := make([]float64, 0, nonNull)
		for i, c := range codes {
			if nulls.Get(i) || !ok[c] {
				continue
			}
			xs = append(xs, vals[c])
		}
		finishFloats(cs, cnt, nonNull)
		finishNumeric(cs, xs)
		return cs, incompatible
	case relational.Bool:
		vals := make([]bool, len(dict))
		for c, s := range dict {
			if occ[c] == 0 {
				continue
			}
			b, err := relational.ParseBool(s)
			if err != nil {
				incompatible += occ[c]
				continue
			}
			vals[c], ok[c] = b, true
		}
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		nTrue, nFalse := 0, 0
		for c := range dict {
			if occ[c] == 0 || !ok[c] {
				continue
			}
			if vals[c] {
				nTrue += occ[c]
			} else {
				nFalse += occ[c]
			}
		}
		xs := make([]float64, 0, nonNull)
		for i, c := range codes {
			if nulls.Get(i) || !ok[c] {
				continue
			}
			if vals[c] {
				xs = append(xs, 1)
			} else {
				xs = append(xs, 0)
			}
		}
		finishBools(cs, nTrue, nFalse, nonNull)
		finishNumeric(cs, xs)
		return cs, incompatible
	default: // relational.Time
		strs := make([]string, len(dict))
		for c, s := range dict {
			if occ[c] == 0 {
				continue
			}
			ts, err := relational.ParseTime(s)
			if err != nil {
				incompatible += occ[c]
				continue
			}
			strs[c], ok[c] = relational.FormatTime(ts), true
		}
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		cnt := make(map[string]int)
		for c := range dict {
			if occ[c] > 0 && ok[c] {
				cnt[strs[c]] += occ[c]
			}
		}
		finishStringCounts(cs, cnt, nonNull)
		return cs, incompatible
	}
}

// intToFloat profiles an integer column viewed as float (never fails).
//
//efes:hot
func intToFloat(table, column string, vec *relational.ColumnVector) *ColumnStats {
	ints, nulls := vec.Ints(), vec.Nulls()
	cs := newStats(table, column, relational.Float, vec.Len(), vec.NullCount())
	nonNull := cs.Rows - cs.Nulls
	cnt := make(map[uint64]int)
	xs := make([]float64, 0, nonNull)
	for i, x := range ints {
		if nulls.Get(i) {
			continue
		}
		f := float64(x) // may collapse >2^53 magnitudes, exactly as Coerce does
		cnt[floatKey(f)]++
		xs = append(xs, f)
	}
	finishFloats(cs, cnt, nonNull)
	finishNumeric(cs, xs)
	return cs
}

// floatToInt profiles a float column viewed as integer: only integral,
// finite values coerce (the seed's Trunc check, replicated per row).
//
//efes:hot
func floatToInt(table, column string, vec *relational.ColumnVector) (*ColumnStats, int) {
	floats, nulls := vec.Floats(), vec.Nulls()
	cnt := make(map[int64]int)
	xs := make([]float64, 0, vec.Len()-vec.NullCount())
	incompatible := 0
	for i, x := range floats {
		if nulls.Get(i) {
			continue
		}
		if x != math.Trunc(x) || math.IsInf(x, 0) {
			incompatible++
			continue
		}
		v := int64(x)
		cnt[v]++
		xs = append(xs, float64(v))
	}
	cs := newStats(table, column, relational.Integer, vec.Len()-incompatible, vec.NullCount())
	finishInts(cs, cnt, cs.Rows-cs.Nulls)
	finishNumeric(cs, xs)
	return cs, incompatible
}

// intToString profiles an integer column rendered as strings, building a
// derived dictionary (one rendering per distinct value) for the fused
// string kernel.
//
//efes:hot
func intToString(table, column string, vec *relational.ColumnVector) *ColumnStats {
	ints, nulls := vec.Ints(), vec.Nulls()
	nonNull := vec.Len() - vec.NullCount()
	m := make(map[int64]int32)
	strs := make([]string, 0, nonNull) // distinct ≤ non-NULL rows
	occ := make([]int, 0, nonNull)
	codes := make([]int32, len(ints))
	for i, x := range ints {
		if nulls.Get(i) {
			continue
		}
		c, seen := m[x]
		if !seen {
			c = int32(len(strs))
			m[x] = c
			strs = append(strs, strconv.FormatInt(x, 10))
			occ = append(occ, 0)
		}
		occ[c]++
		codes[i] = c
	}
	cs := newStats(table, column, relational.String, vec.Len(), vec.NullCount())
	stringKernelDict(cs, strs, occ, codes, nulls)
	return cs
}

// floatToString profiles a float column rendered as strings via a derived
// dictionary keyed by float bits (NaNs canonicalized: they all render
// "NaN").
//
//efes:hot
func floatToString(table, column string, vec *relational.ColumnVector) *ColumnStats {
	floats, nulls := vec.Floats(), vec.Nulls()
	nonNull := vec.Len() - vec.NullCount()
	m := make(map[uint64]int32)
	strs := make([]string, 0, nonNull) // distinct ≤ non-NULL rows
	occ := make([]int, 0, nonNull)
	codes := make([]int32, len(floats))
	for i, x := range floats {
		if nulls.Get(i) {
			continue
		}
		k := floatKey(x)
		c, seen := m[k]
		if !seen {
			c = int32(len(strs))
			m[k] = c
			strs = append(strs, strconv.FormatFloat(x, 'g', -1, 64))
			occ = append(occ, 0)
		}
		occ[c]++
		codes[i] = c
	}
	cs := newStats(table, column, relational.String, vec.Len(), vec.NullCount())
	stringKernelDict(cs, strs, occ, codes, nulls)
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
	stringKernelDict(cs, strs, occ, codes, nulls)
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
