package relational

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode"
	"unicode/utf8"
)

// csvFlushSize is the size at which WriteCSV hands its rendered bytes to
// the writer.
const csvFlushSize = 64 << 10

// WriteCSV encodes one table as CSV, byte for byte as encoding/csv.Writer
// would: a header line with the column names followed by one line per
// row, fields quoted by encoding/csv's rule, lines ended by LF. NULL is
// the empty field, except that a row whose only field is NULL is written
// as "": encoding/csv would write an empty line, which readers skip.
//
// The fields are rendered from the column vectors into one buffer that
// is handed to w in blocks of about csvFlushSize bytes. Whether a string
// needs quotes is decided once per dictionary entry.
func (db *Database) WriteCSV(table string, w io.Writer) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	db.vecMu.Lock()
	vs := db.vecs[table]
	db.vecMu.Unlock()
	var buf []byte
	for i, name := range t.ColumnNames() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, name, csvNeedsQuotes(name))
	}
	buf = append(buf, '\n')
	quoted := make([][]bool, len(vs))
	for i, v := range vs {
		if v.typ == String {
			quoted[i] = make([]bool, len(v.dict))
			for c, s := range v.dict {
				quoted[i][c] = csvNeedsQuotes(s)
			}
		}
	}
	for r, n := 0, vectorsLen(vs); r < n; r++ {
		start := len(buf)
		for i, v := range vs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = v.appendCSV(buf, r, quoted[i])
		}
		if len(buf) == start {
			buf = append(buf, '"', '"')
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendCSV appends the CSV field of row i, rendered as FormatValue
// renders the cell; quoted holds the quoting decision of each dictionary
// entry of a string column.
//
//efes:hot
func (v *ColumnVector) appendCSV(buf []byte, i int, quoted []bool) []byte {
	switch {
	case v.nulls.Get(i):
		return buf
	case v.typ == String:
		c := v.codes[i]
		return appendCSVField(buf, v.dict[c], quoted[c])
	}
	return v.appendValue(buf, i)
}

// csvNeedsQuotes reports whether encoding/csv.Writer quotes the field s:
// it quotes \. and any field that contains a comma, a quote, CR or LF,
// or that starts with a Unicode space.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// appendCSVField appends s as a CSV field: verbatim, or, when quote is
// set, between quotes with each quote doubled. CR and LF stay as they
// are, as encoding/csv.Writer writes them without UseCRLF.
func appendCSVField(buf []byte, s string, quote bool) []byte {
	if !quote {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		buf = append(buf, s[:i+1]...)
		buf = append(buf, '"')
		s = s[i+1:]
	}
	buf = append(buf, s...)
	return append(buf, '"')
}

// ReadCSV appends rows to an existing table from CSV produced by WriteCSV.
// The header must match the table's columns; empty fields become NULL and
// the remaining fields are parsed according to the column types. The
// input is read with encoding/csv's rules and errors (csvDecoder).
//
// Records decode straight into the table's column vectors: no Row is
// built and no cell is boxed. The load runs
// in two overlapping stages (csvintern.go): the calling goroutine reads
// and splits records and parses every field that is not a string into
// its vector, and copies each string field once, into a batch; one
// interning goroutine interns the string columns a batch behind,
// copying a string's bytes into its column's arena on their first
// occurrence. The vectors are exactly those that inserting the
// equivalent rows would build (same dictionary order, counts, codes and
// nulls). When r reports its size (a regular file, a
// strings.Reader or a bytes.Reader), each typed slice is grown once to
// the row count estimated from the first buffered block. The load is
// atomic: records decode into staged vectors that are committed only
// when the whole input parses and the interner has finished, so a
// malformed line mid-file leaves the table untouched. Parse errors name
// the 1-based input line and the column. A panic while interning is
// raised again on the calling goroutine.
func (db *Database) ReadCSV(table string, r io.Reader) error {
	return db.readCSV(table, r, csvBatchRows)
}

// readCSV is ReadCSV with string fields interned in batches of at most
// batchRows records.
func (db *Database) readCSV(table string, r io.Reader, batchRows int) error {
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
	// first, so the result is a fresh build over old and new rows alike,
	// and a failed load leaves the table's vectors untouched.
	db.vecMu.Lock()
	staged := db.restageLocked(t)
	db.vecMu.Unlock()
	est, fieldBytes := d.estimateRecords(size, len(t.Columns)), 0
	if est > 0 {
		for _, v := range staged {
			v.reserve(est)
		}
		fieldBytes = int((size - d.offset) / int64(est*len(t.Columns)))
	}
	if err := decodeCSV(d, t, newInternQueue(t, staged, batchRows, est, fieldBytes)); err != nil {
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
// of t, one field per column: it parses the fields of every column that
// is not a string into its vector, and hands the string fields to q. It
// returns only once q's interner has finished, with the first error in
// row order; a panic of the interner is raised again here.
//
//efes:hot
func decodeCSV(d *csvDecoder, t *Table, q *internQueue) (err error) {
	defer func() {
		// The interner works on records before the decoder's: its
		// failure comes first in row order.
		if qerr := q.stop(); qerr != nil {
			err = fmt.Errorf("relational: read csv for %s: %w", t.Name, qerr)
		}
	}()
	for {
		record, rerr := d.readRecord()
		if rerr == io.EOF {
			q.flush()
			return nil
		}
		if rerr != nil {
			//lint:ignore hotalloc cold error path: the load fails and stops here
			return fmt.Errorf("relational: read csv for %s: %w", t.Name, rerr)
		}
		b := q.cur
		for i, field := range record {
			if j := q.slot[i]; j >= 0 {
				b.add(j, field)
			} else if !q.staged[i].pushField(field) {
				return fieldError(d, t, i, field)
			}
		}
		b.rows++
		if b.full(q.batchRows) {
			q.handOver()
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
