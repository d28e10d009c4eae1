package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSV encodes one table as CSV: a header line with the column names
// followed by one line per row. NULL is encoded as the empty field. It
// reads whichever view the table holds — rows if built, else vectors —
// and builds neither, so the bytes (and the ContentHash over them) do not
// depend on how the table was filled.
func (db *Database) WriteCSV(table string, w io.Writer) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	db.vecMu.Lock()
	rows, hasRows := db.rows[table]
	vs := db.vecs[table]
	db.vecMu.Unlock()
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	n := len(rows)
	if !hasRows {
		n = vectorsLen(vs)
	}
	record := make([]string, len(t.Columns))
	for r := 0; r < n; r++ {
		for i := range record {
			if hasRows {
				record[i] = FormatValue(rows[r][i])
			} else {
				record[i] = vs[i].format(r)
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV appends rows to an existing table from CSV produced by WriteCSV.
// The header must match the table's columns; empty fields become NULL and
// the remaining fields are parsed according to the column types. The
// input is read with encoding/csv's rules and errors (csvDecoder).
//
// Records decode straight into the table's column vectors — no Row is
// built, no cell is boxed, and no field is copied except a string on its
// first occurrence — and the table becomes column-first: its rows are
// derived from the vectors on first row-API use. The vectors are exactly
// those Vector would build from the equivalent inserted rows (same
// dictionary order, counts, codes, nulls, and chunk stamps). When r
// reports its size (a regular file, a strings.Reader or a bytes.Reader),
// each typed slice is grown once to the row count estimated from the
// first buffered block. The load is atomic: records decode into staged
// vectors that are committed only when the whole input parses, so a
// malformed line mid-file leaves the table untouched. Parse errors name
// the 1-based input line and the column.
func (db *Database) ReadCSV(table string, r io.Reader) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	size := inputSize(r)
	d := newCSVDecoder(r, len(t.Columns), csvBufferSize)
	header, err := d.readRecord()
	if err != nil {
		return fmt.Errorf("relational: read csv for %s: %w", table, err)
	}
	if len(header) != len(t.Columns) { // only a table without columns gets here
		return fmt.Errorf("relational: csv header mismatch for %s: got %d columns, want %d", table, len(header), len(t.Columns))
	}
	for i, name := range header {
		if string(name) != t.Columns[i].Name {
			return fmt.Errorf("relational: csv header mismatch for %s: got %q, want %q", table, string(name), t.Columns[i].Name)
		}
	}
	// An append to a table that already holds data restages that data
	// first, so the result is a fresh build over old and new rows alike.
	db.vecMu.Lock()
	staged := db.restageLocked(t)
	db.vecMu.Unlock()
	if n := d.estimateRecords(size, len(t.Columns)); n > 0 {
		for _, v := range staged {
			v.reserve(n)
		}
	}
	if err := decodeCSV(d, t, staged); err != nil {
		return err
	}
	for _, v := range staged {
		v.seal()
	}
	db.vecMu.Lock()
	db.vecs[table] = staged
	delete(db.rows, table)
	db.vecMu.Unlock()
	db.invalidateHash(table)
	return nil
}

// decodeCSV appends every remaining record of d to the staged vectors
// of t, one field per column.
//
//efes:hot
func decodeCSV(d *csvDecoder, t *Table, staged []*ColumnVector) error {
	for {
		record, err := d.readRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			//lint:ignore hotalloc cold error path: the load fails and stops here
			return fmt.Errorf("relational: read csv for %s: %w", t.Name, err)
		}
		for i, field := range record {
			if !staged[i].pushField(field) {
				return fieldError(d, t, i, field)
			}
		}
	}
}

// fieldError reports a field that does not parse as its column's type,
// with Coerce's wording, the 1-based line the field starts on and the
// column name.
func fieldError(d *csvDecoder, t *Table, i int, field []byte) error {
	_, cerr := Coerce(t.Columns[i].Type, string(field))
	return fmt.Errorf("relational: csv for %s: line %d, column %s: %w", t.Name, d.fieldLine(i), t.Columns[i].Name, cerr)
}

// SaveDir writes the whole database to a directory: schema.txt describing
// the schema (informational) and one <table>.csv per table.
func (db *Database) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "schema.txt"), []byte(db.Schema.String()), 0o644); err != nil {
		return err
	}
	for _, t := range db.Schema.Tables() {
		f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
		if err != nil {
			return err
		}
		if err := db.WriteCSV(t.Name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads rows for every table of the schema from <table>.csv files
// in dir. Missing files leave the table empty.
func (db *Database) LoadDir(dir string) error {
	for _, t := range db.Schema.Tables() {
		path := filepath.Join(dir, t.Name+".csv")
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := db.ReadCSV(t.Name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ParseSchemaText parses the textual schema format emitted by
// Schema.String, so that databases saved with SaveDir can be reloaded
// without Go code. The format is line-oriented:
//
//	schema NAME
//	  table NAME(col type, col type, ...)
//	  PRIMARY KEY (table.col,col)
//	  UNIQUE (table.col)
//	  NOT NULL (table.col)
//	  FOREIGN KEY (table.col) REFERENCES table.col
func ParseSchemaText(text string) (*Schema, error) {
	var s *Schema
	var deferred []string // constraint lines, applied after all tables
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "schema "):
			s = NewSchema(strings.TrimSpace(strings.TrimPrefix(line, "schema ")))
		case strings.HasPrefix(line, "table "):
			if s == nil {
				return nil, fmt.Errorf("relational: line %d: table before schema", lineno+1)
			}
			if err := parseTableLine(s, line); err != nil {
				return nil, fmt.Errorf("relational: line %d: %w", lineno+1, err)
			}
		default:
			deferred = append(deferred, line)
		}
	}
	if s == nil {
		return nil, fmt.Errorf("relational: no schema declaration found")
	}
	for _, line := range deferred {
		c, err := parseConstraintLine(line)
		if err != nil {
			return nil, err
		}
		if err := s.AddConstraint(c); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func parseTableLine(s *Schema, line string) error {
	rest := strings.TrimPrefix(line, "table ")
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return fmt.Errorf("malformed table line %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	body := rest[open+1 : len(rest)-1]
	var cols []Column
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return fmt.Errorf("malformed column %q in table %s", part, name)
		}
		typ, err := ParseType(fields[1])
		if err != nil {
			return err
		}
		cols = append(cols, Column{Name: fields[0], Type: typ})
	}
	t, err := NewTable(name, cols...)
	if err != nil {
		return err
	}
	return s.AddTable(t)
}

func parseConstraintLine(line string) (Constraint, error) {
	parseRefs := func(body string) (string, []string, error) {
		dot := strings.Index(body, ".")
		if dot < 0 {
			return "", nil, fmt.Errorf("relational: malformed column list %q", body)
		}
		table := body[:dot]
		cols := strings.Split(body[dot+1:], ",")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		return table, cols, nil
	}
	inner := func(s, prefix string) (string, bool) {
		if !strings.HasPrefix(s, prefix+" (") {
			return "", false
		}
		rest := strings.TrimPrefix(s, prefix+" (")
		end := strings.Index(rest, ")")
		if end < 0 {
			return "", false
		}
		return rest[:end], true
	}
	switch {
	case strings.HasPrefix(line, "PRIMARY KEY"):
		body, ok := inner(line, "PRIMARY KEY")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		return PrimaryKey{Table: table, Columns: cols}, nil
	case strings.HasPrefix(line, "UNIQUE"):
		body, ok := inner(line, "UNIQUE")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		return UniqueConstraint{Table: table, Columns: cols}, nil
	case strings.HasPrefix(line, "NOT NULL"):
		body, ok := inner(line, "NOT NULL")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		return NotNullConstraint{Table: table, Column: cols[0]}, nil
	case strings.HasPrefix(line, "FOREIGN KEY"):
		body, ok := inner(line, "FOREIGN KEY")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		refIdx := strings.Index(line, "REFERENCES ")
		if refIdx < 0 {
			return nil, fmt.Errorf("relational: malformed foreign key %q", line)
		}
		refTable, refCols, err := parseRefs(strings.TrimSpace(line[refIdx+len("REFERENCES "):]))
		if err != nil {
			return nil, err
		}
		return ForeignKey{Table: table, Columns: cols, RefTable: refTable, RefColumns: refCols}, nil
	default:
		return nil, fmt.Errorf("relational: unrecognized constraint line %q", line)
	}
}
