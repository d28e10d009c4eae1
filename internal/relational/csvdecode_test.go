package relational

// csvDecoder against encoding/csv.Reader, record by record. FuzzReadCSV
// reaches the decoder only through a five-column table, inputs shorter
// than its buffer and a reader that never fails; FuzzCSVRecords drives it
// directly, with any field count, a buffer as small as 16 bytes (so lines
// outgrow it) and a reader that fails part way.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzCSVRecords reads input with the decoder and with encoding/csv
// (FieldsPerRecord nfields%8, so 0 lets the first record decide) and
// compares every record's fields and field start lines, and the first
// error's text. bufSize sets the decoder's buffer to 16 B–64 KiB;
// failAt > 0 makes every read fail once that many bytes, or the whole
// input, have been read.
func FuzzCSVRecords(f *testing.F) {
	f.Add("a,b\n\"c\",d\n", uint8(2), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, input string, nfields uint8, bufSize uint16, failAt uint16) {
		open := func() io.Reader {
			r := strings.NewReader(input)
			if failAt == 0 {
				return r
			}
			return io.MultiReader(io.LimitReader(r, int64(failAt)), iotest.ErrReader(errors.New("injected read failure")))
		}
		want := csv.NewReader(open())
		want.FieldsPerRecord = int(nfields % 8)
		want.ReuseRecord = true
		got := newCSVDecoder(open(), int(nfields%8), max(16, int(bufSize)+1))
		for rec := 1; ; rec++ {
			wfields, werr := want.Read()
			gfields, gerr := got.readRecord()
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("record %d: error %v, encoding/csv %v", rec, gerr, werr)
			}
			if werr != nil {
				return
			}
			if len(gfields) != len(wfields) {
				t.Fatalf("record %d: %d fields, encoding/csv %d", rec, len(gfields), len(wfields))
			}
			for i, w := range wfields {
				if string(gfields[i]) != w {
					t.Fatalf("record %d field %d = %q, encoding/csv %q", rec, i, gfields[i], w)
				}
				if line, _ := want.FieldPos(i); got.fieldLine(i) != line {
					t.Fatalf("record %d field %d starts on line %d, encoding/csv %d", rec, i, got.fieldLine(i), line)
				}
			}
		}
	})
}

// TestReadCSVSizeEstimateBounded: the row-count estimate drawn from the
// first buffered block never makes a load keep, or allocate, much more
// than its input could fill.
func TestReadCSVSizeEstimateBounded(t *testing.T) {
	t.Run("rows lengthen after the first block", func(t *testing.T) {
		s := NewSchema("est")
		s.MustAddTable(MustTable("t",
			Column{Name: "n", Type: Integer},
			Column{Name: "s", Type: String},
			Column{Name: "f", Type: Float},
		))
		var b strings.Builder
		b.WriteString("n,s,f\n")
		for i := 0; b.Len() < csvBufferSize; i++ {
			fmt.Fprintf(&b, "%d,s%d,%d.5\n", i, i%3, i)
		}
		long := strings.Repeat("x", 1000)
		for i := 0; i < 300; i++ {
			fmt.Fprintf(&b, "%d,%s%d,\n", i, long, i)
		}
		db := NewDatabase(s)
		assertLoadsAgree(t, db, new([]Row), "t", b.String())
		for i, v := range db.Vectors("t") {
			for _, c := range []struct {
				name     string
				len, cap int
			}{
				{"codes", len(v.codes), cap(v.codes)},
				{"ints", len(v.ints), cap(v.ints)},
				{"floats", len(v.floats), cap(v.floats)},
			} {
				if c.cap > c.len+c.len/4 {
					t.Errorf("column %d: %s cap %d for len %d, want <= len + len/4", i, c.name, c.cap, c.len)
				}
			}
		}
	})
	t.Run("blank lines", func(t *testing.T) {
		s := NewSchema("est")
		cols := make([]Column, 8)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: Integer}
		}
		s.MustAddTable(MustTable("t", cols...))
		var b strings.Builder
		for i := range cols {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(cols[i].Name)
		}
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("\n", csvBufferSize))
		for i := 0; i < 3; i++ {
			b.WriteString("1,2,3,4,5,6,7,8\n")
		}
		input := b.String()
		db := NewDatabase(s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := db.ReadCSV("t", strings.NewReader(input))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := db.NumRows("t"); n != 3 {
			t.Fatalf("rows = %d, want 3", n)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(input)) {
			t.Errorf("load allocated %d bytes for a %d-byte input, want <= 16x", alloc, len(input))
		}
	})
}

// TestInputSize: the readers that know their size report the bytes left
// from their current position; any other reader reports 0 (no estimate).
func TestInputSize(t *testing.T) {
	sr := strings.NewReader("0123456789")
	if _, err := sr.Read(make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		r    io.Reader
		want int64
	}{
		{"strings.Reader", sr, 7},
		{"bytes.Reader", bytes.NewReader([]byte("01234")), 5},
		{"regular file", f, 6},
		{"other reader", io.LimitReader(strings.NewReader("0123"), 4), 0},
	} {
		if got := inputSize(c.r); got != c.want {
			t.Errorf("%s: inputSize = %d, want %d", c.name, got, c.want)
		}
	}
}
