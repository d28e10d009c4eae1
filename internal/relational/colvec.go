package relational

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file implements the columnar substrate of the store. Each table
// keeps one ColumnVector per column: a typed vector with a null bitmap,
// and — for string columns — dictionary encoding (interned codes into an
// append-ordered dictionary with per-code occurrence counts). The vectors
// are what the profiling kernels, the schema matcher, the CSG interner and
// the discovery merge-joins scan; the row API (Rows, Column, ...) is the
// compatibility view.
//
// A table has one of two owners. A table filled by ReadCSV is column-first:
// the CSV decodes straight into its vectors, and its rows are derived from
// them on first row-API use. A table filled by Insert is row-first: its
// vectors are built from the rows on first access. Either view, once
// built, is maintained incrementally by Insert, Update, and Delete. As
// with the row view, concurrent readers are safe (vecMu guards building
// either view on first use) but mutation must not race with reads.

// ChunkSize is the number of rows (or, for string columns, dictionary
// entries) per profiling chunk: the unit of work the sharded profiling
// kernels fan out over and the granularity of the per-chunk mutation
// stamps below. A power of two keeps the row→chunk mapping a shift.
const ChunkSize = 1 << 16

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

// clear unsets bit i.
func (b *Bitmap) clear(i int) {
	w := i >> 6
	if w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) & 63)
	}
}

// ColumnVector is the columnar representation of one column: a typed
// vector with a null bitmap. String columns are dictionary-encoded: each
// row stores a code into an append-ordered dictionary of interned strings,
// with per-code occurrence counts maintained incrementally.
//
// The slices returned by the accessors are owned by the vector: they must
// not be mutated and are valid until the next mutation of the database.
//
// The dictionary entries a vector held when it was sealed share one
// backing string (see dict.go). A dictionary string kept beyond the
// vector, such as a memoized profile's top-k value, therefore keeps that
// whole string alive, and with it the column's string storage.
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

	// chunkStamps holds one logical mutation stamp per ChunkSize rows,
	// maintained incrementally: appending stamps the last chunk, an
	// in-place update stamps the row's chunk, and a compacting delete
	// stamps every chunk from the first removed row on. Stamps are drawn
	// from the monotonically increasing stampEpoch (never reused, even
	// when a delete truncates the stamp array and appends regrow it), so
	// a consumer that cached a per-chunk summary can compare stamps to
	// reprofile only the chunks that actually changed.
	chunkStamps []uint64 //efes:bounded one stamp per ChunkSize rows of the owning table
	stampEpoch  uint64

	// memoized SortedDistinct result; nil after any mutation. The mutex
	// only guards memo (re)computation: readers may share a vector, and
	// the first one builds the memo for all.
	memoMu sync.Mutex
	memo   []string //efes:guardedby memoMu
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
// occurrence) order. After deletes or updates, entries whose count dropped
// to zero linger; consumers must skip codes with Counts()[c] == 0.
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

// Chunks returns the number of ChunkSize row chunks covering the vector
// (zero for an empty column).
func (v *ColumnVector) Chunks() int {
	return (v.length + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the half-open row range [lo, hi) of chunk k.
func (v *ColumnVector) ChunkBounds(k int) (lo, hi int) {
	lo = k * ChunkSize
	hi = lo + ChunkSize
	if hi > v.length {
		hi = v.length
	}
	return lo, hi
}

// ChunkStamp returns the logical mutation stamp of chunk k: it changes
// whenever any row of the chunk is inserted, updated, or shifted by a
// compacting delete, so equal stamps mean an unchanged chunk.
func (v *ColumnVector) ChunkStamp(k int) uint64 {
	if k < len(v.chunkStamps) {
		return v.chunkStamps[k]
	}
	return 0
}

// stampAppend accounts a freshly appended row i to the chunk stamps.
//
//efes:hot
func (v *ColumnVector) stampAppend(i int) {
	v.stampEpoch++
	k := i / ChunkSize
	for k >= len(v.chunkStamps) {
		//lint:ignore hotalloc grows one stamp per ChunkSize appended rows; amortized doubling, not per-append
		v.chunkStamps = append(v.chunkStamps, 0)
	}
	v.chunkStamps[k] = v.stampEpoch
}

// stampTouch stamps the chunk containing row i.
func (v *ColumnVector) stampTouch(i int) {
	v.stampEpoch++
	if k := i / ChunkSize; k < len(v.chunkStamps) {
		v.chunkStamps[k] = v.stampEpoch
	}
}

// stampFrom stamps every chunk from the one containing row i on and
// drops stamps beyond the new length (a compacting delete shifts every
// later row, so every later chunk changed).
func (v *ColumnVector) stampFrom(i int) {
	v.stampEpoch++
	from := i / ChunkSize
	n := v.Chunks()
	if n > len(v.chunkStamps) {
		n = len(v.chunkStamps)
	}
	for k := from; k < n; k++ {
		v.chunkStamps[k] = v.stampEpoch
	}
	if n < len(v.chunkStamps) {
		v.chunkStamps = v.chunkStamps[:n]
	}
}

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

// SortedDistinct returns the distinct non-NULL values of the column,
// rendered with FormatValue and sorted lexicographically. The result is
// memoized until the next mutation; it is the substrate of the
// inclusion-dependency merge-joins and the matcher's instance profiles.
// The returned slice must not be mutated.
func (v *ColumnVector) SortedDistinct() []string {
	v.memoMu.Lock()
	defer v.memoMu.Unlock()
	if v.memo != nil {
		return v.memo
	}
	v.memo = v.computeSortedDistinct()
	return v.memo
}

// computeSortedDistinct builds the sorted distinct rendering. For every
// type the rendering collapses values exactly as FormatValue map keys do.
//
//efes:hot
func (v *ColumnVector) computeSortedDistinct() []string {
	switch v.typ {
	case String:
		out := make([]string, 0, len(v.dict))
		for c, s := range v.dict {
			if v.counts[c] > 0 {
				out = append(out, s)
			}
		}
		sort.Strings(out)
		return out
	case Integer:
		seen := make(map[int64]struct{})
		for i, x := range v.ints {
			if !v.nulls.Get(i) {
				seen[x] = struct{}{}
			}
		}
		out := make([]string, 0, len(seen))
		for x := range seen {
			out = append(out, strconv.FormatInt(x, 10))
		}
		sort.Strings(out)
		return out
	case Float:
		seen := make(map[uint64]struct{})
		for i, x := range v.floats {
			if !v.nulls.Get(i) {
				seen[FloatKey(x)] = struct{}{}
			}
		}
		out := make([]string, 0, len(seen))
		for b := range seen {
			out = append(out, FormatFloat(math.Float64frombits(b)))
		}
		sort.Strings(out)
		return out
	case Bool:
		var hasTrue, hasFalse bool
		for i, x := range v.bools {
			if v.nulls.Get(i) {
				continue
			}
			if x {
				hasTrue = true
			} else {
				hasFalse = true
			}
		}
		out := make([]string, 0, 2)
		if hasFalse {
			out = append(out, "false")
		}
		if hasTrue {
			out = append(out, "true")
		}
		return out
	default: // Time: collapse by rendering (RFC3339 drops sub-second detail)
		seen := make(map[string]struct{})
		for i, x := range v.times {
			if !v.nulls.Get(i) {
				seen[FormatTime(x)] = struct{}{}
			}
		}
		out := make([]string, 0, len(seen))
		for s := range seen {
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
}

// invalidate drops the distinct memo after a mutation.
func (v *ColumnVector) invalidate() {
	v.memoMu.Lock()
	v.memo = nil
	v.memoMu.Unlock()
}

// appendValue appends one canonical (already coerced) cell to a live
// vector, stamping its chunk and dropping the distinct memo.
func (v *ColumnVector) appendValue(val Value) {
	v.stampAppend(v.length)
	v.pushValue(val)
	v.invalidate()
}

// pushValue appends one canonical cell to the storage of a vector under
// construction; seal stamps it once the build is complete.
//
//efes:hot
func (v *ColumnVector) pushValue(val Value) {
	if val == nil {
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

// pushNull appends a NULL cell to a vector under construction.
func (v *ColumnVector) pushNull() {
	v.nulls.set(v.length)
	v.nullCount++
	v.appendZero()
	v.length++
}

// seal stamps a vector built by pushValue/pushField exactly as appending
// its rows one by one with appendValue would have: each chunk carries the
// stamp of its last row, min((k+1)·ChunkSize, n), and the epoch is n. A
// typed slice left with more spare capacity than append's own growth
// slack (a reserve that overshot) is copied down to its length. A string
// column's arena becomes the backing string of its dictionary.
func (v *ColumnVector) seal() {
	v.sealDict()
	v.codes = clip(v.codes)
	v.ints = clip(v.ints)
	v.floats = clip(v.floats)
	v.bools = clip(v.bools)
	v.times = clip(v.times)
	if n := v.Chunks(); n > 0 {
		v.chunkStamps = make([]uint64, n)
		for k := range v.chunkStamps {
			_, hi := v.ChunkBounds(k)
			v.chunkStamps[k] = uint64(hi)
		}
	}
	v.stampEpoch = uint64(v.length)
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

// format renders the cell of row i exactly as FormatValue(v.Value(i))
// does, without boxing it.
func (v *ColumnVector) format(i int) string {
	if v.nulls.Get(i) {
		return ""
	}
	switch v.typ {
	case String:
		return v.dict[v.codes[i]]
	case Integer:
		return strconv.FormatInt(v.ints[i], 10)
	case Float:
		return FormatFloat(v.floats[i])
	case Bool:
		return strconv.FormatBool(v.bools[i])
	case Time:
		return FormatTime(v.times[i])
	}
	return ""
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

// setValue overwrites the cell of row i with a canonical value.
//
//efes:hot
func (v *ColumnVector) setValue(i int, val Value) {
	v.stampTouch(i)
	if v.nulls.Get(i) {
		v.nulls.clear(i)
		v.nullCount--
	} else if v.typ == String {
		v.counts[v.codes[i]]--
	}
	if val == nil {
		v.nulls.set(i)
		v.nullCount++
		v.setZero(i)
		v.invalidate()
		return
	}
	switch v.typ {
	case String:
		c := v.intern(val.(string))
		v.codes[i] = c
		v.counts[c]++
	case Integer:
		v.ints[i] = val.(int64)
	case Float:
		v.floats[i] = val.(float64)
	case Bool:
		v.bools[i] = val.(bool)
	case Time:
		v.times[i] = val.(time.Time)
	}
	v.invalidate()
}

// setZero zeroes the typed slot of row i.
func (v *ColumnVector) setZero(i int) {
	switch v.typ {
	case String:
		v.codes[i] = 0
	case Integer:
		v.ints[i] = 0
	case Float:
		v.floats[i] = 0
	case Bool:
		v.bools[i] = false
	case Time:
		v.times[i] = time.Time{}
	}
}

// deleteRows compacts the vector, removing the rows in drop (indexes
// relative to the pre-delete length; out-of-range entries are ignored,
// matching Database.Delete).
//
//efes:hot
func (v *ColumnVector) deleteRows(drop map[int]struct{}) {
	origLen := v.length
	first := origLen // first actually dropped row, for the chunk stamps
	for i := range drop {
		if i >= 0 && i < origLen && i < first {
			first = i
		}
	}
	w := 0
	var nulls Bitmap
	nullCount := 0
	for i := 0; i < v.length; i++ {
		if _, gone := drop[i]; gone {
			if v.nulls.Get(i) {
				// dropped NULL: nothing to unaccount beyond the bitmap
			} else if v.typ == String {
				v.counts[v.codes[i]]--
			}
			continue
		}
		if v.nulls.Get(i) {
			nulls.set(w)
			nullCount++
		}
		if w != i {
			switch v.typ {
			case String:
				v.codes[w] = v.codes[i]
			case Integer:
				v.ints[w] = v.ints[i]
			case Float:
				v.floats[w] = v.floats[i]
			case Bool:
				v.bools[w] = v.bools[i]
			case Time:
				v.times[w] = v.times[i]
			}
		}
		w++
	}
	switch v.typ {
	case String:
		v.codes = v.codes[:w]
	case Integer:
		v.ints = v.ints[:w]
	case Float:
		v.floats = v.floats[:w]
	case Bool:
		v.bools = v.bools[:w]
	case Time:
		v.times = v.times[:w]
	}
	v.length = w
	v.nulls = nulls
	v.nullCount = nullCount
	if first < origLen { // a row was actually dropped
		v.stampFrom(first)
	}
	v.invalidate()
}

// Vector returns the columnar view of one column, building the table's
// vectors from its rows on first access to a row-first table. It returns
// nil for unknown tables or columns. The returned vector is maintained
// incrementally by subsequent Insert/Update/Delete calls; like the row
// view, it must not be read concurrently with mutation.
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

// Vectors returns the columnar view of every column of a table in
// declaration order, or nil for unknown tables.
func (db *Database) Vectors(table string) []*ColumnVector {
	t := db.Schema.Table(table)
	if t == nil {
		return nil
	}
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	return db.vectorsLocked(t)
}

// vectorsLocked returns (building if necessary) the vectors of a table.
// Callers hold vecMu.
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

// restageLocked returns unsealed vectors holding the table's current
// content, read from whichever view is built, so that a build can append
// to them. A fresh build compacts: the dictionary holds exactly the live
// strings in first-occurrence row order. Callers hold vecMu.
func (db *Database) restageLocked(t *Table) []*ColumnVector {
	vs := make([]*ColumnVector, len(t.Columns))
	for i, c := range t.Columns {
		vs[i] = newColumnVector(c.Type)
	}
	if rows, ok := db.rows[t.Name]; ok {
		for _, row := range rows {
			for i := range vs {
				vs[i].pushValue(row[i])
			}
		}
	} else if old, ok := db.vecs[t.Name]; ok {
		for i, v := range old {
			for r := 0; r < v.Len(); r++ {
				vs[i].pushValue(v.Value(r))
			}
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

// deriveRows builds the row view of a column-first table from its
// vectors, all rows sharing one backing array of cells.
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
