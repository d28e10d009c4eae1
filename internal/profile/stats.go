// Package profile implements single-column data profiling: the statistics
// catalog of the paper's §5.1 (fill status, constancy, text patterns,
// character histograms, string lengths, mean, numeric histograms, value
// ranges, top-k values) plus schema reverse engineering (discovery of
// unique, not-null, primary-key, and inclusion-dependency/foreign-key
// candidates from instances, §3.1).
package profile

import (
	"math"
	"sort"
	"unicode"
	"unicode/utf8"

	"efes/internal/relational"
)

// StatType identifies one of the statistics of the paper's §5.1.
type StatType string

// The statistic types collected by the profiler.
const (
	// StatFill is the fill status: share of non-NULL values castable to
	// the target type.
	StatFill StatType = "fill status"
	// StatConstancy is the inverse of Shannon's information entropy.
	StatConstancy StatType = "constancy"
	// StatTextPattern collects frequent string patterns.
	StatTextPattern StatType = "text pattern"
	// StatCharHistogram captures relative character occurrences.
	StatCharHistogram StatType = "character histogram"
	// StatStringLength is mean and standard deviation of string lengths.
	StatStringLength StatType = "string length"
	// StatMean is mean and standard deviation of numeric values.
	StatMean StatType = "mean"
	// StatHistogram is an equi-width numeric histogram.
	StatHistogram StatType = "histogram"
	// StatValueRange is the minimum and maximum numeric value.
	StatValueRange StatType = "value range"
	// StatTopK identifies the most frequent values.
	StatTopK StatType = "top-k values"
)

// ValueCount pairs a rendered value (or pattern) with its occurrence count.
type ValueCount struct {
	Value string
	Count int
}

// Dist holds a mean and standard deviation.
type Dist struct {
	Mean   float64
	StdDev float64
}

// Histogram is an equi-width histogram over [Min, Max].
type Histogram struct {
	Min, Max float64
	// Buckets holds one count per equi-width bucket.
	Buckets []int
}

// HistogramBuckets is the number of buckets used for numeric histograms.
const HistogramBuckets = 16

// TopKSize is the number of most frequent values retained.
const TopKSize = 10

// ColumnStats aggregates every statistic of one column.
type ColumnStats struct {
	// Table and Column identify the profiled attribute.
	Table, Column string
	// Type is the column's declared type.
	Type relational.Type

	// Rows is the total number of rows (values incl. NULLs).
	Rows int
	// Nulls is the number of NULL values.
	Nulls int
	// Distinct is the number of distinct non-NULL values.
	Distinct int
	// Fill is the share of non-NULL values, in [0,1].
	Fill float64
	// Constancy is 1 - normalizedEntropy: 1 for a constant column, 0
	// for all-distinct values (the inverse of Shannon's entropy, §5.1).
	Constancy float64
	// Patterns are the text patterns of string values with counts,
	// most frequent first.
	Patterns []ValueCount
	// CharHist maps characters to their relative frequency over all
	// characters of all string values.
	//
	//efes:bounded one bucket per distinct rune of the profiled column; fixed once computed
	CharHist map[rune]float64
	// StringLength is the distribution of string lengths.
	StringLength Dist
	// Mean is the distribution of numeric values.
	Mean Dist
	// NumHist is the equi-width histogram of numeric values.
	NumHist Histogram
	// Min and Max are the numeric value range.
	Min, Max float64
	// HasNumeric reports whether any numeric value was observed (Mean,
	// NumHist, Min, Max are meaningful only if true).
	HasNumeric bool
	// TopK are the most frequent values, most frequent first; ties are
	// broken by value for determinism.
	TopK []ValueCount
	// TopKCoverage is the share of non-NULL values covered by TopK.
	TopKCoverage float64
}

// Column profiles one column of a database instance on the calling
// goroutine via the columnar kernels (bit-identical to the row path, see
// shard.go).
func Column(db *relational.Database, table, column string) (*ColumnStats, error) {
	if _, err := lookupColumn(db, table, column); err != nil {
		return nil, err
	}
	return FromVectorSharded(table, column, db.Vector(table, column), 1), nil
}

// MustColumn is Column but panics on error.
func MustColumn(db *relational.Database, table, column string) *ColumnStats {
	cs, err := Column(db, table, column)
	if err != nil {
		panic(err)
	}
	return cs
}

// Values profiles a raw value slice. It is the workhorse behind Column and
// is exported so that detectors can profile derived (virtual) columns.
func Values(table, column string, typ relational.Type, values []relational.Value) *ColumnStats {
	cs := &ColumnStats{Table: table, Column: column, Type: typ, Rows: len(values)}
	counts := make(map[string]int, len(values)/4+1)
	patterns := make(map[string]int, 8)
	charCounts := make(map[rune]int, 64)
	totalChars := 0
	var lengths, numbers []float64
	for _, v := range values {
		if v == nil {
			cs.Nulls++
			continue
		}
		s := relational.FormatValue(v)
		counts[s]++
		switch x := v.(type) {
		case string:
			patterns[Pattern(x)]++
			for _, r := range x {
				charCounts[r]++
				totalChars++
			}
			lengths = append(lengths, float64(len([]rune(x))))
		case int64:
			numbers = append(numbers, float64(x))
		case float64:
			numbers = append(numbers, x)
		case bool:
			if x {
				numbers = append(numbers, 1)
			} else {
				numbers = append(numbers, 0)
			}
		}
	}
	nonNull := cs.Rows - cs.Nulls
	cs.Distinct = len(counts)
	if cs.Rows > 0 {
		cs.Fill = float64(nonNull) / float64(cs.Rows)
	}
	all := sortedCounts(counts)
	cs.Constancy = constancy(all, nonNull)
	cs.Patterns = sortedCounts(patterns)
	if totalChars > 0 {
		cs.CharHist = make(map[rune]float64, len(charCounts))
		for r, n := range charCounts {
			cs.CharHist[r] = float64(n) / float64(totalChars)
		}
	}
	cs.StringLength = distOf(lengths)
	if len(numbers) > 0 {
		cs.HasNumeric = true
		cs.Mean = distOf(numbers)
		cs.Min, cs.Max = minMax(numbers)
		cs.NumHist = histogramOf(numbers, cs.Min, cs.Max)
	}
	if len(all) > TopKSize {
		cs.TopK = all[:TopKSize]
	} else {
		cs.TopK = all
	}
	covered := 0
	for _, vc := range cs.TopK {
		covered += vc.Count
	}
	if nonNull > 0 {
		cs.TopKCoverage = float64(covered) / float64(nonNull)
	}
	return cs
}

// constancy returns 1 - H/Hmax where H is the Shannon entropy of the value
// distribution and Hmax = log2(#distinct). A constant column has
// constancy 1; a column of all-distinct values has constancy 0. It takes
// the counts as an ordered slice (sortedCounts) rather than the raw map:
// the entropy is a float sum, and summing in map order would make the
// profile — and every fit score derived from it — vary between runs.
func constancy(counts []ValueCount, nonNull int) float64 {
	if nonNull == 0 || len(counts) <= 1 {
		return 1
	}
	h := 0.0
	for _, vc := range counts {
		p := float64(vc.Count) / float64(nonNull)
		h -= p * math.Log2(p)
	}
	hmax := math.Log2(float64(nonNull))
	if hmax == 0 {
		return 1
	}
	c := 1 - h/hmax
	if c < 0 {
		return 0
	}
	return c
}

func sortedCounts(m map[string]int) []ValueCount {
	out := make([]ValueCount, 0, len(m))
	for v, n := range m {
		out = append(out, ValueCount{Value: v, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func distOf(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return Dist{Mean: mean, StdDev: math.Sqrt(ss / float64(len(xs)))}
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func histogramOf(xs []float64, lo, hi float64) Histogram {
	h := Histogram{Min: lo, Max: hi, Buckets: make([]int, HistogramBuckets)}
	width := hi - lo
	for _, x := range xs {
		b := 0
		if width > 0 {
			// Clamp on the float before converting: with ±Inf values
			// (legal float64 cell contents) the bucket expression is
			// NaN or ±Inf, and Go's float-to-int conversion of those
			// is unspecified — an unclamped int(NaN) indexed out of
			// bounds here.
			f := (x - lo) / width * float64(HistogramBuckets)
			switch {
			case math.IsNaN(f) || f < 0:
				b = 0
			case f >= HistogramBuckets:
				b = HistogramBuckets - 1
			default:
				b = int(f)
			}
		}
		h.Buckets[b]++
	}
	return h
}

// Pattern abstracts a string into a shape: runs of digits become "9",
// runs of letters become "a", whitespace becomes a single space, and any
// other character is kept literally. E.g. "4:43" -> "9:9",
// "Sweet Home Alabama" -> "a a a", "215900" -> "9".
func Pattern(s string) string {
	var buf [64]byte // stays on the stack: only the string copy allocates
	return string(appendPattern(buf[:0], s))
}

// appendPattern appends Pattern(s) to buf, so a caller that reuses buf
// allocates nothing per value.
func appendPattern(buf []byte, s string) []byte {
	var last rune
	for _, r := range s {
		var c rune
		switch {
		case unicode.IsDigit(r):
			c = '9'
		case unicode.IsLetter(r):
			c = 'a'
		case unicode.IsSpace(r):
			c = ' '
		default:
			c = r
		}
		if (c == '9' || c == 'a' || c == ' ') && c == last {
			continue // compress runs of the same class
		}
		buf = utf8.AppendRune(buf, c)
		last = c
	}
	return buf
}
