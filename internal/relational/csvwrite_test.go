package relational

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fuzzBytes hands out the bytes of a fuzz input; past its end it reads
// zeros.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) uint64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(b.byte())
	}
	return x
}

// writeCSVNames are column names, some of which encoding/csv quotes.
var writeCSVNames = []string{"c", "a,b", " lead", `q"t`, `\.`, " nb", "n2"}

// writeCSVStrings are the strings whose quoting the writer must get
// right: the empty string (stored as NULL), quotes, commas, CR and LF,
// a leading space or U+00A0, `\.`, and invalid UTF-8.
var writeCSVStrings = []string{
	"", "plain", `"`, `a"b""c`, ",", "a,b", "\r", "\n", "x\ry", "x\ny", "x\r\ny",
	" lead", "\tlead", " lead", "trail ", `\.`, `\.x`, "\xff", "🎸 Rhapsody",
}

// writeCSVFloats are the floats whose rendering the writer must get
// right.
var writeCSVFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, 1e21, 123456789.125}

// fuzzCell draws one cell of a column of type typ from b.
func fuzzCell(b *fuzzBytes, typ Type) Value {
	sel := b.byte()
	if sel%7 == 0 {
		return nil
	}
	switch typ {
	case String:
		if sel%7 < 4 {
			return writeCSVStrings[int(b.byte())%len(writeCSVStrings)]
		}
		n := int(b.byte() % 12)
		s := make([]byte, n)
		for i := range s {
			s[i] = b.byte()
		}
		return string(s)
	case Integer:
		switch sel % 7 {
		case 1:
			return int64(math.MinInt64)
		case 2:
			return int64(math.MaxInt64)
		}
		return int64(b.uint64())
	case Float:
		if sel%7 < 4 {
			return writeCSVFloats[int(b.byte())%len(writeCSVFloats)]
		}
		if x := math.Float64frombits(b.uint64()); !math.IsNaN(x) {
			return x
		}
		return math.NaN() // one NaN: ReadCSV reads every NaN back as this one
	case Bool:
		return sel&1 == 1
	default:
		// Whole seconds in UTC, years 1 to 9999: RFC3339 carries no
		// fraction of a second and four digits of year.
		const lo, hi = -62135596800, 253402300799
		return time.Unix(lo+int64(b.uint64()%(hi-lo+1)), 0).UTC()
	}
}

// FuzzWriteCSV builds a table of one to five columns of any types from
// data, inserts up to 64 rows drawn from the rest of it, and checks
// WriteCSV against encoding/csv.Writer over FormatValue (oracleCSV),
// byte for byte. ReadCSV of those bytes must give the vectors that
// inserting the rows gives, except that CSV readers turn "\r\n" inside
// a quoted field into "\n". Seeds in testdata/fuzz/FuzzWriteCSV.
func FuzzWriteCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		shape := b.byte()
		cols := make([]Column, 1+int(shape%5))
		for i := range cols {
			cols[i] = Column{
				Name: writeCSVNames[(int(shape/5)+i)%len(writeCSVNames)],
				Type: Type(b.byte() % 5),
			}
		}
		s := NewSchema("fuzz")
		s.MustAddTable(MustTable("t", cols...))
		tab := s.Table("t")
		db := NewDatabase(s)
		var rows, back []Row
		for len(b) > 0 && len(rows) < 64 {
			row := make(Row, len(cols))
			for i, c := range cols {
				row[i] = fuzzCell(&b, c.Type)
			}
			db.MustInsert("t", row...)
			rows = append(rows, row)
			norm := make(Row, len(row))
			for i, v := range row {
				if s, ok := v.(string); ok {
					v = strings.ReplaceAll(s, "\r\n", "\n")
				}
				norm[i] = v
			}
			back = append(back, norm)
		}
		var buf strings.Builder
		if err := db.WriteCSV("t", &buf); err != nil {
			t.Fatal(err)
		}
		if want := oracleCSV(tab, rows); buf.String() != want {
			t.Fatalf("WriteCSV = %q, encoding/csv %q", buf.String(), want)
		}
		loaded := NewDatabase(s)
		if err := loaded.ReadCSV("t", strings.NewReader(buf.String())); err != nil {
			t.Fatalf("ReadCSV of %q: %v", buf.String(), err)
		}
		want := vectorsFromRows(tab, back)
		for i, v := range loaded.Vectors("t") {
			assertSameVector(t, cols[i].Name, v, want[i])
		}
	})
}
