package relational

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Row is a single tuple; its length always equals the number of columns of
// its table, in declaration order. A nil element is SQL NULL.
type Row []Value

// Database is an instance of a Schema: the column vectors of each table.
type Database struct {
	// Schema is the schema this instance conforms to (modulo any
	// violations reported by Validate).
	Schema *Schema

	// Each table is held as one vector per column (see colvec.go), filled
	// by Insert and ReadCSV; a missing entry is an empty table. The rows
	// of a table are a view derived from its vectors on first use and
	// memoized until the next Insert or ReadCSV. vecMu guards both maps:
	// concurrent readers may derive the row view, which turns a read into
	// a write.
	vecMu sync.Mutex
	//efes:bounded one slice per table of the loaded instance, one element per row
	rows map[string][]Row //efes:guardedby vecMu
	//efes:bounded one vector per column of each table of the schema
	vecs map[string][]*ColumnVector //efes:guardedby vecMu

	// hashes memoizes per-table content hashes (ContentHash). hashMu is
	// separate from vecMu so a first-time hash (a full CSV serialization
	// of the table) never blocks readers of the vectors; holding it
	// across the computation deduplicates concurrent hashers of the same
	// instance. Insert and ReadCSV invalidate via invalidateHash.
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
// invalidated by Insert and ReadCSV.
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
// representation (e.g. int -> int64) before any is stored, so a value
// that does not coerce leaves the table untouched. An empty string in a
// string column is stored as NULL (see pushValue).
func (db *Database) Insert(table string, values ...Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: insert into unknown table %s", table)
	}
	if len(values) != len(t.Columns) {
		return fmt.Errorf("relational: insert into %s: got %d values, want %d", table, len(values), len(t.Columns))
	}
	// The coerced values are staged on the stack for tables of up to
	// eight columns: the row itself is not kept.
	var small [8]Value
	row := small[:0]
	if len(values) > len(small) {
		row = make([]Value, 0, len(values))
	}
	for i, v := range values {
		cv, err := Coerce(t.Columns[i].Type, v)
		if err != nil {
			return fmt.Errorf("relational: insert into %s.%s: %w", table, t.Columns[i].Name, err)
		}
		row = append(row, cv)
	}
	db.vecMu.Lock()
	for i, v := range db.vectorsLocked(t) {
		v.pushValue(row[i])
	}
	delete(db.rows, table)
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

// Rows returns the tuples of the named table, derived from its vectors on
// first use. The returned slice is owned by the database and must not be
// mutated.
func (db *Database) Rows(table string) []Row {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
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

// NumRows returns the number of tuples in the named table.
func (db *Database) NumRows(table string) int {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	return vectorsLen(db.vecs[table])
}

// TotalRows returns the number of tuples over all tables.
func (db *Database) TotalRows() int {
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	n := 0
	for _, t := range db.Schema.Tables() {
		n += vectorsLen(db.vecs[t.Name])
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
	v := db.Vectors(table)[idx]
	out := make([]Value, v.Len())
	for i := range out {
		out[i] = v.Value(i)
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

// Validate checks every declared constraint against the instance and
// returns all violations.
func (db *Database) Validate() []Violation {
	var out []Violation
	for _, c := range db.Schema.Constraints {
		out = append(out, c.Violations(db)...)
	}
	return out
}

// Clone deep-copies the instance, sharing the immutable schema: every
// vector is copied column by column, so inserting into the copy leaves
// the original untouched.
func (db *Database) Clone() *Database {
	out := NewDatabase(db.Schema)
	db.vecMu.Lock()
	defer db.vecMu.Unlock()
	for _, t := range db.Schema.Tables() {
		vs, ok := db.vecs[t.Name]
		if !ok {
			continue
		}
		cp := make([]*ColumnVector, len(vs))
		for i, v := range vs {
			cp[i] = v.clone()
		}
		out.vecs[t.Name] = cp
	}
	return out
}
