package relational

import (
	"math"
	"slices"
	"strconv"
	"time"
)

// This file implements the columnar substrate of the store. Each table
// keeps one ColumnVector per column: a typed vector with a null bitmap,
// and — for string columns — dictionary encoding (interned codes into an
// append-ordered dictionary with per-code occurrence counts). The vectors
// are the only owner of a table's data: Insert and ReadCSV append to
// them, and the profiling kernels, the schema matcher, the CSG interner,
// the discovery merge-joins and WriteCSV read them. The row API (Rows)
// is a view derived from them, and so is a column seen through another
// type (Coerced). A vector keeps nothing derived from its data, so it
// holds no lock: concurrent readers are safe, but an append must not
// race with reads.

// Bitmap is a fixed-purpose bitset over row indexes.
type Bitmap struct {
	words []uint64 //efes:bounded sized to the owning table's row count
}

// Get reports whether bit i is set. Indexes beyond the bitmap are unset.
func (b *Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b.words) && b.words[w]&(1<<(uint(i)&63)) != 0
}

// set sets bit i, growing the bitmap as needed.
//
//efes:hot
func (b *Bitmap) set(i int) {
	w := i >> 6
	for w >= len(b.words) {
		//lint:ignore hotalloc grows the word array to the high-water mark once; amortized doubling, not per-set
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

// ColumnVector is the columnar representation of one column: a typed
// vector with a null bitmap. String columns are dictionary-encoded: each
// row stores a code into an append-ordered dictionary of interned strings,
// with per-code occurrence counts.
//
// The slices returned by the accessors are owned by the vector: they must
// not be mutated and are valid until the next append to the table.
//
// The dictionary entries a vector held when it was sealed share one
// backing string (see dict.go). A dictionary string kept beyond the
// vector therefore keeps that whole string alive, and with it the
// column's string storage, so a profile copies the top-k values it
// keeps.
type ColumnVector struct {
	typ    Type
	length int

	nulls     Bitmap
	nullCount int

	// String columns (dictionary encoding).
	codes  []int32
	dict   []string //efes:bounded one entry per distinct string value of the column
	counts []int    //efes:bounded one entry per distinct string value of the column
	index  dictIndex
	// sealed is set by seal: from then on a new string is appended to
	// dict directly instead of to the index's arena.
	sealed bool

	// Other types: one slot per row, zero-valued where NULL.
	ints   []int64
	floats []float64
	bools  []bool
	times  []time.Time
}

func newColumnVector(t Type) *ColumnVector {
	return &ColumnVector{typ: t}
}

// Type returns the column's declared type.
func (v *ColumnVector) Type() Type { return v.typ }

// Len returns the number of rows (including NULLs).
func (v *ColumnVector) Len() int { return v.length }

// NullCount returns the number of NULL rows.
func (v *ColumnVector) NullCount() int { return v.nullCount }

// Null reports whether row i is NULL.
func (v *ColumnVector) Null(i int) bool { return v.nulls.Get(i) }

// Nulls returns the null bitmap (read-only view).
func (v *ColumnVector) Nulls() *Bitmap { return &v.nulls }

// Codes returns the per-row dictionary codes of a string column (nil for
// other types). The code of a NULL row is meaningless; consult Null.
func (v *ColumnVector) Codes() []int32 { return v.codes }

// Dict returns the dictionary of a string column in append (first
// occurrence) order. Every entry occurs in at least one row: its count is
// positive.
func (v *ColumnVector) Dict() []string { return v.dict }

// Counts returns the per-code occurrence counts, parallel to Dict.
func (v *ColumnVector) Counts() []int { return v.counts }

// Ints returns the typed vector of an integer column (nil otherwise).
func (v *ColumnVector) Ints() []int64 { return v.ints }

// Floats returns the typed vector of a float column (nil otherwise).
func (v *ColumnVector) Floats() []float64 { return v.floats }

// Bools returns the typed vector of a boolean column (nil otherwise).
func (v *ColumnVector) Bools() []bool { return v.bools }

// Times returns the typed vector of a timestamp column (nil otherwise).
func (v *ColumnVector) Times() []time.Time { return v.times }

// Value materializes the cell of row i as a row-API Value.
func (v *ColumnVector) Value(i int) Value {
	if v.nulls.Get(i) {
		return nil
	}
	switch v.typ {
	case String:
		return v.dict[v.codes[i]]
	case Integer:
		return v.ints[i]
	case Float:
		return v.floats[i]
	case Bool:
		return v.bools[i]
	case Time:
		return v.times[i]
	}
	return nil
}

// canonNaN is the single bit pattern all NaNs are mapped to when floats
// are keyed by bits: FormatValue renders every NaN as "NaN", so distinct
// NaN payloads must collapse exactly as they do under string keys.
var canonNaN = math.Float64bits(math.NaN())

// FloatKey returns the distinct-value key of a float: its bit pattern with
// NaNs canonicalized. Unlike keying a map by float64 (where 0 == -0 and
// NaN never matches itself), this reproduces FormatValue key semantics
// bit-for-bit: -0 and 0 stay distinct ("-0" vs "0"), NaNs collapse. It is
// shared by the profiling kernels and the interned CSG instance builder.
func FloatKey(x float64) uint64 {
	if math.IsNaN(x) {
		return canonNaN
	}
	return math.Float64bits(x)
}

// Coerced returns the column as Coerce converts each of its values to t,
// and the number of values that do not convert. The view keeps the
// column's row order and its NULLs, and leaves out each row whose value
// does not convert, so it holds Len() - dropped rows. A string column's
// dictionary entries are parsed once each, with the Parse helpers. A
// view as String renders each value into one reused buffer and interns
// it as pushField interns a CSV field, so no row allocates; its
// dictionary holds the distinct renderings in first-occurrence order.
// Through its own type a column is its own view. A view, like every
// vector, must not be mutated.
//
// Coerced is the one place where it is decided which values convert and
// into what: the profiler views a source column through its target's
// type with it (value fit, §5 of the paper), and the matcher, constraint
// discovery and the dedup module read a column's distinct renderings as
// its text view's dictionary.
//
//efes:hot
func (v *ColumnVector) Coerced(t Type) (view *ColumnVector, dropped int) {
	if t == v.typ {
		return v, 0
	}
	view = newColumnVector(t)
	switch {
	case t == String:
		view.reserve(v.length)
		var buf []byte
		for i := 0; i < v.length; i++ {
			if v.nulls.Get(i) {
				view.pushNull()
				continue
			}
			buf = v.appendValue(buf[:0], i)
			view.pushField(buf)
		}
	case v.typ == String && t == Integer:
		view.ints, dropped = parseRows(v, view, ParseInt)
	case v.typ == String && t == Float:
		view.floats, dropped = parseRows(v, view, ParseFloat)
	case v.typ == String && t == Bool:
		view.bools, dropped = parseRows(v, view, ParseBool)
	case v.typ == String && t == Time:
		view.times, dropped = parseRows(v, view, ParseTime)
	case v.typ == Integer && t == Float:
		view.floats, dropped = convertRows(v, view, v.ints, func(x int64) (float64, bool) { return float64(x), true })
	case v.typ == Float && t == Integer:
		view.ints, dropped = convertRows(v, view, v.floats, floatToInt)
	default: // Coerce converts no value of this type to t
		for i := 0; i < v.nullCount; i++ {
			view.pushNull()
		}
		dropped = v.length - v.nullCount
	}
	view.seal()
	return view, dropped
}

// parseRows is convertRows over a string column's codes, each dictionary
// entry parsed once by parse.
func parseRows[T any](v, view *ColumnVector, parse func(string) (T, error)) ([]T, int) {
	vals := make([]T, len(v.dict))
	ok := make([]bool, len(v.dict))
	for c, s := range v.dict {
		x, err := parse(s)
		vals[c], ok[c] = x, err == nil
	}
	return convertRows(v, view, v.codes, func(c int32) (T, bool) { return vals[c], ok[c] })
}

// convertRows fills view from src, the typed slice of v, and returns the
// view's typed slice and the number of dropped rows: a NULL row stays
// NULL, and each other row holds conv of its value, or is dropped when
// conv reports false.
//
//efes:hot
func convertRows[S, T any](v, view *ColumnVector, src []S, conv func(S) (T, bool)) (out []T, dropped int) {
	out = make([]T, 0, len(src))
	var zero T
	for i, x := range src {
		if v.nulls.Get(i) {
			view.nulls.set(len(out))
			view.nullCount++
			out = append(out, zero)
		} else if y, ok := conv(x); ok {
			out = append(out, y)
		} else {
			dropped++
		}
	}
	view.length = len(out)
	return out, dropped
}

// appendValue appends the FormatValue rendering of row i, which is not
// NULL, of a column that is not a string column.
func (v *ColumnVector) appendValue(buf []byte, i int) []byte {
	switch v.typ {
	case Integer:
		return strconv.AppendInt(buf, v.ints[i], 10)
	case Float:
		return strconv.AppendFloat(buf, v.floats[i], 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(buf, v.bools[i])
	case Time:
		return v.times[i].AppendFormat(buf, time.RFC3339)
	}
	return buf
}

// pushValue appends one canonical cell to a vector. The empty string is
// stored as NULL, as pushField stores the empty CSV field: WriteCSV
// writes both as the empty field, so a table and its WriteCSV→ReadCSV
// round trip have equal vectors, as they have equal content hashes.
//
//efes:hot
func (v *ColumnVector) pushValue(val Value) {
	if val == nil || val == "" {
		v.pushNull()
		return
	}
	switch v.typ {
	case String:
		c := v.intern(val.(string))
		v.codes = append(v.codes, c)
		v.counts[c]++
	case Integer:
		v.ints = append(v.ints, val.(int64))
	case Float:
		v.floats = append(v.floats, val.(float64))
	case Bool:
		v.bools = append(v.bools, val.(bool))
	case Time:
		v.times = append(v.times, val.(time.Time))
	}
	v.length++
}

// pushField appends one CSV field to a vector under construction, parsed
// with Coerce's string semantics: the empty field is NULL, a string is
// interned (looked up by its bytes, which are copied into the column's
// arena only on their first occurrence, so the dictionary never pins the
// reader's buffer), and any other type parses into its dense slice — an
// integer spelled -?[0-9]{1,18}, as WriteCSV spells nearly every int64,
// inline, any other spelling through ParseInt. It reports false,
// appending nothing, when the field does not parse as the column's type.
//
//efes:hot
func (v *ColumnVector) pushField(field []byte) bool {
	if len(field) == 0 {
		v.pushNull()
		return true
	}
	switch v.typ {
	case String:
		c := internHashed(v, field, hashBytes(field))
		v.codes = append(v.codes, c)
		v.counts[c]++
	case Integer:
		x, ok := parseDecimal(field)
		if !ok {
			var err error
			if x, err = ParseInt(string(field)); err != nil {
				return false
			}
		}
		v.ints = append(v.ints, x)
	case Float:
		x, err := ParseFloat(string(field))
		if err != nil {
			return false
		}
		v.floats = append(v.floats, x)
	case Bool:
		x, err := ParseBool(string(field))
		if err != nil {
			return false
		}
		v.bools = append(v.bools, x)
	case Time:
		x, err := ParseTime(string(field))
		if err != nil {
			return false
		}
		v.times = append(v.times, x)
	}
	v.length++
	return true
}

// parseDecimal parses b when it is spelled -?[0-9]{1,18}. Eighteen digits
// cannot overflow an int64, and ParseInt reads every such spelling to
// the same value; it reports false for any other spelling.
func parseDecimal(b []byte) (int64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var x int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	return x, true
}

// reserve grows the typed slice of a vector under construction once, so
// that n more rows append without a copy.
func (v *ColumnVector) reserve(n int) {
	switch v.typ {
	case String:
		v.codes = grow(v.codes, n)
	case Integer:
		v.ints = grow(v.ints, n)
	case Float:
		v.floats = grow(v.floats, n)
	case Bool:
		v.bools = grow(v.bools, n)
	case Time:
		v.times = grow(v.times, n)
	}
}

// grow returns s with room for n more elements, in one allocation.
// (slices.Grow allocates twice under the race detector, which disables
// the compiler's append-of-make rewrite.)
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make([]T, len(s), len(s)+n)
	copy(g, s)
	return g
}

// pushNull appends a NULL cell to a vector.
func (v *ColumnVector) pushNull() {
	v.nulls.set(v.length)
	v.nullCount++
	v.appendZero()
	v.length++
}

// seal completes a vector built by pushField or pushValue. A typed slice
// left with more spare capacity than append's own growth slack (a
// reserve that overshot) is copied down to its length. A string column's
// arena becomes the backing string of its dictionary, and from then on a
// new string is appended to the dictionary directly.
func (v *ColumnVector) seal() {
	v.sealDict()
	v.codes = clip(v.codes)
	v.ints = clip(v.ints)
	v.floats = clip(v.floats)
	v.bools = clip(v.bools)
	v.times = clip(v.times)
}

// clone returns a copy of a sealed vector. Strings are immutable, so the
// copy shares them, but every slice is copied: an append to either vector
// never writes into the other's storage. The copy rebuilds its
// dictionary index on its first new string.
func (v *ColumnVector) clone() *ColumnVector {
	return &ColumnVector{
		typ:       v.typ,
		length:    v.length,
		nulls:     Bitmap{words: slices.Clone(v.nulls.words)},
		nullCount: v.nullCount,
		codes:     slices.Clone(v.codes),
		dict:      slices.Clone(v.dict),
		counts:    slices.Clone(v.counts),
		sealed:    true,
		ints:      slices.Clone(v.ints),
		floats:    slices.Clone(v.floats),
		bools:     slices.Clone(v.bools),
		times:     slices.Clone(v.times),
	}
}

// clip returns s, or a copy of it without spare capacity when its
// capacity exceeds len + len/4.
func clip[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/4 {
		return s
	}
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// appendZero appends the zero slot that keeps typed storage positionally
// aligned with the row index for a NULL cell.
func (v *ColumnVector) appendZero() {
	switch v.typ {
	case String:
		v.codes = append(v.codes, 0)
	case Integer:
		v.ints = append(v.ints, 0)
	case Float:
		v.floats = append(v.floats, 0)
	case Bool:
		v.bools = append(v.bools, false)
	case Time:
		v.times = append(v.times, time.Time{})
	}
}

// Vector returns the vector of one column, or nil for unknown tables or
// columns. Later Inserts append to the returned vector; like the row
// view, it must not be read concurrently with an Insert.
func (db *Database) Vector(table, column string) *ColumnVector {
	t := db.Schema.Table(table)
	if t == nil {
		return nil
	}
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return nil
	}
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	return db.vectorsLocked(t)[idx]
}

// Vectors returns the vectors of every column of a table in declaration
// order, or nil for unknown tables.
func (db *Database) Vectors(table string) []*ColumnVector {
	t := db.Schema.Table(table)
	if t == nil {
		return nil
	}
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	return db.vectorsLocked(t)
}

// vectorsLocked returns the vectors of a table, creating empty, sealed
// ones on first use. Callers hold vecMu.
func (db *Database) vectorsLocked(t *Table) []*ColumnVector {
	if vs, ok := db.vecs[t.Name]; ok {
		return vs
	}
	vs := db.restageLocked(t)
	for _, v := range vs {
		v.seal()
	}
	db.vecs[t.Name] = vs
	return vs
}

// restageLocked returns unsealed vectors holding a copy of the table's
// current content (none for a table without vectors), so that ReadCSV
// can append to them and commit the result only once the whole input
// has parsed. Callers hold vecMu.
func (db *Database) restageLocked(t *Table) []*ColumnVector {
	vs := make([]*ColumnVector, len(t.Columns))
	for i, c := range t.Columns {
		vs[i] = newColumnVector(c.Type)
	}
	for i, v := range db.vecs[t.Name] {
		for r := 0; r < v.Len(); r++ {
			vs[i].pushValue(v.Value(r))
		}
	}
	return vs
}

// vectorsLen is the row count of a table held as vectors.
func vectorsLen(vs []*ColumnVector) int {
	if len(vs) == 0 {
		return 0
	}
	return vs[0].Len()
}

// deriveRows builds the row view of a table from its vectors, all rows
// sharing one backing array of cells.
func deriveRows(vs []*ColumnVector) []Row {
	n, w := vectorsLen(vs), len(vs)
	if n == 0 {
		return nil
	}
	cells := make([]Value, n*w)
	rows := make([]Row, n)
	for i := range rows {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		for j, v := range vs {
			row[j] = v.Value(i)
		}
		rows[i] = row
	}
	return rows
}
