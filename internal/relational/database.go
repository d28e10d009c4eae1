package relational

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Row is a single tuple; its length always equals the number of columns of
// its table, in declaration order. A nil element is SQL NULL.
type Row []Value

// clone returns a copy of the row.
func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Database is an instance of a Schema: a set of rows per table.
type Database struct {
	// Schema is the schema this instance conforms to (modulo any
	// violations reported by Validate).
	Schema *Schema

	// A table is held as rows, as vectors (see colvec.go), or both. A
	// table filled by ReadCSV starts with vectors only and derives its
	// rows on first row-API use; a table filled by Insert starts with
	// rows only and builds its vectors on first columnar access. A
	// missing entry in both maps is an empty table. vecMu guards both
	// maps and those first-use builds: concurrent readers may trigger a
	// build, which turns a read into a write.
	vecMu sync.Mutex
	//efes:bounded one slice per table of the loaded instance, one element per row
	rows map[string][]Row //efes:guardedby vecMu
	//efes:bounded one vector per column of each table of the schema
	vecs map[string][]*ColumnVector //efes:guardedby vecMu

	// hashes memoizes per-table content hashes (ContentHash). hashMu is
	// separate from vecMu so a first-time hash (a full CSV serialization
	// of the table) never blocks columnar materialization; holding it
	// across the computation deduplicates concurrent hashers of the same
	// instance. Mutations invalidate via invalidateHash.
	hashMu sync.Mutex
	hashes map[string]string //efes:guardedby hashMu
}

// NewDatabase creates an empty instance of the given schema.
func NewDatabase(s *Schema) *Database {
	return &Database{
		Schema: s,
		rows:   make(map[string][]Row),
		vecs:   make(map[string][]*ColumnVector),
		hashes: make(map[string]string),
	}
}

// ContentHash returns a hex-encoded SHA-256 over the table's full CSV
// serialization (header plus every row in order, WriteCSV's encoding).
// Two tables hash equal iff they have the same column names and the same
// tuples in the same order, whatever process or machine computed the
// hash — the content address that keys the durable profile and result
// caches (internal/persist). The hash is memoized per table and
// invalidated by Insert, Update, Delete, and ReadCSV. Hashing reads
// whichever view the table holds and builds neither.
func (db *Database) ContentHash(table string) (string, error) {
	db.hashMu.Lock()
	defer db.hashMu.Unlock()
	if h, ok := db.hashes[table]; ok {
		return h, nil
	}
	hasher := sha256.New()
	if err := db.WriteCSV(table, hasher); err != nil {
		return "", err
	}
	h := hex.EncodeToString(hasher.Sum(nil))
	db.hashes[table] = h
	return h, nil
}

// invalidateHash drops the memoized content hash of a mutated table.
func (db *Database) invalidateHash(table string) {
	db.hashMu.Lock()
	delete(db.hashes, table)
	db.hashMu.Unlock()
}

// Insert appends a tuple to the named table after type-checking every
// value against the column types. Values are coerced to their canonical
// representation (e.g. int -> int64).
func (db *Database) Insert(table string, values ...Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: insert into unknown table %s", table)
	}
	if len(values) != len(t.Columns) {
		return fmt.Errorf("relational: insert into %s: got %d values, want %d", table, len(values), len(t.Columns))
	}
	row := make(Row, len(values))
	for i, v := range values {
		cv, err := Coerce(t.Columns[i].Type, v)
		if err != nil {
			return fmt.Errorf("relational: insert into %s.%s: %w", table, t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	db.vecMu.Lock()
	db.rows[table] = append(db.rowsLocked(table), row)
	if vs, ok := db.vecs[table]; ok {
		for i := range vs {
			vs[i].appendValue(row[i])
		}
	}
	db.vecMu.Unlock()
	db.invalidateHash(table)
	return nil
}

// MustInsert is Insert but panics on error; for generators and tests.
func (db *Database) MustInsert(table string, values ...Value) {
	if err := db.Insert(table, values...); err != nil {
		panic(err)
	}
}

// InsertMap inserts a tuple given as a column-name-to-value map; missing
// columns become NULL, unknown columns are an error.
func (db *Database) InsertMap(table string, values map[string]Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: insert into unknown table %s", table)
	}
	row := make([]Value, len(t.Columns))
	// Visit the columns in sorted order so that a tuple with several
	// unknown columns always reports the same one.
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		idx := t.ColumnIndex(name)
		if idx < 0 {
			return fmt.Errorf("relational: insert into %s: unknown column %s", table, name)
		}
		row[idx] = values[name]
	}
	return db.Insert(table, row...)
}

// Rows returns the tuples of the named table, deriving them from the
// vectors of a column-first table on first use. The returned slice is
// owned by the database and must not be mutated.
func (db *Database) Rows(table string) []Row {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	return db.rowsLocked(table)
}

// rowsLocked returns the row view of a table, deriving and memoizing it
// when only vectors are held. Callers hold vecMu.
func (db *Database) rowsLocked(table string) []Row {
	if rs, ok := db.rows[table]; ok {
		return rs
	}
	vs, ok := db.vecs[table]
	if !ok {
		return nil
	}
	rs := deriveRows(vs)
	db.rows[table] = rs
	return rs
}

// NumRows returns the number of tuples in the named table. It reads
// whichever view the table holds and builds neither.
func (db *Database) NumRows(table string) int {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	return db.numRowsLocked(table)
}

// numRowsLocked is NumRows for callers holding vecMu.
func (db *Database) numRowsLocked(table string) int {
	if rs, ok := db.rows[table]; ok {
		return len(rs)
	}
	return vectorsLen(db.vecs[table])
}

// TotalRows returns the number of tuples over all tables.
func (db *Database) TotalRows() int {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	n := 0
	for _, t := range db.Schema.Tables() {
		n += db.numRowsLocked(t.Name)
	}
	return n
}

// Column returns all values of one column, in row order (including NULLs
// and duplicates).
func (db *Database) Column(table, column string) ([]Value, error) {
	t := db.Schema.Table(table)
	if t == nil {
		return nil, fmt.Errorf("relational: unknown table %s", table)
	}
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("relational: unknown column %s.%s", table, column)
	}
	rows := db.Rows(table)
	out := make([]Value, 0, len(rows))
	for _, row := range rows {
		out = append(out, row[idx])
	}
	return out, nil
}

// MustColumn is Column but panics on error.
func (db *Database) MustColumn(table, column string) []Value {
	vs, err := db.Column(table, column)
	if err != nil {
		panic(err)
	}
	return vs
}

// DistinctValues returns the distinct non-NULL values of a column, in
// deterministic (sorted) order, and the number of NULLs.
func (db *Database) DistinctValues(table, column string) (distinct []Value, nulls int, err error) {
	vs, err := db.Column(table, column)
	if err != nil {
		return nil, 0, err
	}
	seen := make(map[string]Value)
	for _, v := range vs {
		if v == nil {
			nulls++
			continue
		}
		seen[FormatValue(v)] = v
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	distinct = make([]Value, 0, len(keys))
	for _, k := range keys {
		distinct = append(distinct, seen[k])
	}
	return distinct, nulls, nil
}

// Validate checks every declared constraint against the instance and
// returns all violations.
func (db *Database) Validate() []Violation {
	var out []Violation
	for _, c := range db.Schema.Constraints {
		out = append(out, c.Violations(db)...)
	}
	return out
}

// Clone deep-copies the instance (sharing the immutable schema) as a
// row-first copy: it derives the source's rows where only vectors are
// held, and the copy builds its own vectors on demand.
func (db *Database) Clone() *Database {
	out := NewDatabase(db.Schema)
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	for _, t := range db.Schema.Tables() {
		rs := db.rowsLocked(t.Name)
		if rs == nil {
			continue
		}
		cp := make([]Row, len(rs))
		for i, r := range rs {
			cp[i] = r.clone()
		}
		out.rows[t.Name] = cp
	}
	return out
}

// Delete removes the rows at the given indexes from the named table.
// Indexes outside the table are ignored.
func (db *Database) Delete(table string, rowIndexes ...int) {
	if len(rowIndexes) == 0 {
		return
	}
	drop := make(map[int]struct{}, len(rowIndexes))
	for _, i := range rowIndexes {
		drop[i] = struct{}{}
	}
	db.vecMu.Lock()
	src := db.rowsLocked(table)
	dst := src[:0]
	for i, r := range src {
		if _, gone := drop[i]; !gone {
			dst = append(dst, r)
		}
	}
	db.rows[table] = dst
	if vs, ok := db.vecs[table]; ok {
		for i := range vs {
			vs[i].deleteRows(drop)
		}
	}
	db.vecMu.Unlock()
	db.invalidateHash(table)
}

// Update sets column of the row at rowIndex to v (after coercion).
func (db *Database) Update(table string, rowIndex int, column string, v Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: update unknown table %s", table)
	}
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("relational: update unknown column %s.%s", table, column)
	}
	db.vecMu.Lock()
	err := db.updateLocked(t, rowIndex, idx, v)
	db.vecMu.Unlock()
	if err != nil {
		return err
	}
	db.invalidateHash(table)
	return nil
}

// updateLocked is the body of Update for callers holding vecMu.
func (db *Database) updateLocked(t *Table, rowIndex, idx int, v Value) error {
	if rowIndex < 0 || rowIndex >= db.numRowsLocked(t.Name) {
		return fmt.Errorf("relational: update %s: row %d out of range", t.Name, rowIndex)
	}
	cv, err := Coerce(t.Columns[idx].Type, v)
	if err != nil {
		return err
	}
	db.rowsLocked(t.Name)[rowIndex][idx] = cv
	if vs, ok := db.vecs[t.Name]; ok {
		vs[idx].setValue(rowIndex, cv)
	}
	return nil
}

// JoinPair is one matched pair of row indexes produced by EquiJoin.
type JoinPair struct {
	Left, Right int
}

// EquiJoin matches rows of two tables on equality of the given columns and
// returns the matching index pairs. NULLs never join.
func (db *Database) EquiJoin(leftTable, leftColumn, rightTable, rightColumn string) ([]JoinPair, error) {
	lt := db.Schema.Table(leftTable)
	rt := db.Schema.Table(rightTable)
	if lt == nil || rt == nil {
		return nil, fmt.Errorf("relational: join of unknown tables %s, %s", leftTable, rightTable)
	}
	li := lt.ColumnIndex(leftColumn)
	ri := rt.ColumnIndex(rightColumn)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("relational: join on unknown columns %s.%s, %s.%s", leftTable, leftColumn, rightTable, rightColumn)
	}
	index := make(map[string][]int)
	for j, row := range db.Rows(rightTable) {
		v := row[ri]
		if v == nil {
			continue
		}
		k := FormatValue(v)
		index[k] = append(index[k], j)
	}
	var out []JoinPair
	for i, row := range db.Rows(leftTable) {
		v := row[li]
		if v == nil {
			continue
		}
		for _, j := range index[FormatValue(v)] {
			out = append(out, JoinPair{Left: i, Right: j})
		}
	}
	return out, nil
}
