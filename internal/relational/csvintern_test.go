package relational

// The interning stage of ReadCSV (csvintern.go) at its edges: batch
// boundaries anywhere, the byte limit, and the failures of the decoder
// and of the interner, which must leave the table as it was and no
// goroutine behind.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"efes/internal/faultinject"
)

// allTypesRows returns n records of allTypesSchema's table, from first on.
func allTypesRows(first, n int) string {
	var b strings.Builder
	for i := first; i < first+n; i++ {
		fmt.Fprintf(&b, "v%d,%d,%d.5,%t,2015-03-%02d\n", i%7, i, i, i%2 == 0, 1+i%28)
	}
	return b.String()
}

// TestReadCSVBatchBoundaries loads, in batches of 3 records, inputs that
// fail after some batches have gone to the interner: the error is the
// one a default-batch load of the same input returns, and the table
// keeps the rows it held. A clean input loads as the row path does.
func TestReadCSVBatchBoundaries(t *testing.T) {
	const head = "s,i,f,b,ts\n"
	cases := []struct {
		name, input, want string
	}{
		{"integer error in the third batch", head + allTypesRows(0, 7) + "v,x1,,,\n" + allTypesRows(8, 2), "line 9, column i"},
		{"field count error in the second batch", head + allTypesRows(0, 4) + "v,1\n" + allTypesRows(5, 3), "wrong number of fields"},
		{"bare quote in the third batch", head + allTypesRows(0, 6) + "a\"b,1,,,\n", "bare \" in non-quoted-field"},
		{"clean", head + allTypesRows(0, 10) + ",,,,\n" + allTypesRows(11, 3), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := allTypesSchema()
			batched, plain := NewDatabase(s), NewDatabase(s)
			earlier, err := readCSVRows(s.Table("t"), strings.NewReader(head+allTypesRows(100, 2)))
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []*Database{batched, plain} {
				for _, row := range earlier {
					db.MustInsert("t", row...)
				}
			}
			before := mustHash(t, batched, "t")
			berr := batched.readCSV("t", strings.NewReader(c.input), 3)
			perr := plain.ReadCSV("t", strings.NewReader(c.input))
			if (berr == nil) != (perr == nil) || (berr != nil && berr.Error() != perr.Error()) {
				t.Fatalf("3-record batches: %v; default batches: %v", berr, perr)
			}
			if c.want == "" {
				if berr != nil {
					t.Fatal(berr)
				}
				assertLoadsAgreeBatched(t, NewDatabase(s), new([]Row), "t", c.input, 3)
				return
			}
			if berr == nil || !strings.Contains(berr.Error(), c.want) {
				t.Fatalf("error %v, want one naming %q", berr, c.want)
			}
			if n, h := batched.NumRows("t"), mustHash(t, batched, "t"); n != 2 || h != before {
				t.Errorf("after the failed load: %d rows, hash changed %v; want the 2 earlier rows", n, h != before)
			}
		})
	}
}

// TestReadCSVBatchByteLimit: a batch whose fields reach csvBatchBytes
// goes to the interner before it holds csvBatchRows records.
func TestReadCSVBatchByteLimit(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// A delay of nothing only counts the batches interned.
	faultinject.Enable("relational:intern", faultinject.Fault{Kind: faultinject.Delay})
	big := strings.Repeat("x", csvBatchBytes/2)
	input := "s,i,f,b,ts\n" + big + "a,1,,,\n" + big + "b,2,,,\n" + big + "a,3,,,\n"
	s := allTypesSchema()
	assertLoadsAgree(t, NewDatabase(s), new([]Row), "t", input)
	if n := faultinject.Calls("relational:intern"); n != 2 {
		t.Errorf("interned %d batches, want 2: the first full by bytes after two records", n)
	}
}

// internTable is a table of two string columns around an integer.
func internTable() *Database {
	s := NewSchema("intern")
	s.MustAddTable(MustTable("t",
		Column{Name: "name", Type: String},
		Column{Name: "id", Type: Integer},
		Column{Name: "tag", Type: String},
	))
	return NewDatabase(s)
}

// internRows returns the header and n records of internTable's table.
func internRows(n int) string {
	var b strings.Builder
	b.WriteString("name,id,tag\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "artist %d,%d,t%d\n", i%1000, i, i%3)
	}
	return b.String()
}

// waitGoroutines waits until at most n goroutines run. The interner
// signals its WaitGroup before it returns, so it may still be counted
// for a moment after the load it served.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the load, want %d: the interner outlived it", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// TestReadCSVInternPanic: a panic on the interning goroutine is raised
// again on the caller's, with the same value, once the interner has
// exited; the table keeps its earlier rows.
func TestReadCSVInternPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	db := internTable()
	if err := db.ReadCSV("t", strings.NewReader(internRows(2))); err != nil {
		t.Fatal(err)
	}
	before, base := mustHash(t, db, "t"), runtime.NumGoroutine()
	faultinject.Enable("relational:intern", faultinject.Fault{Kind: faultinject.Panic, OnCall: 2})
	func() {
		defer func() {
			if v := recover(); v != "faultinject: injected panic at relational:intern" {
				t.Errorf("recovered %v, want faultinject's panic", v)
			}
		}()
		err := db.ReadCSV("t", strings.NewReader(internRows(3*csvBatchRows+5)))
		t.Errorf("ReadCSV returned %v, want the interner's panic", err)
	}()
	waitGoroutines(t, base)
	if n := faultinject.Calls("relational:intern"); n != 2 {
		t.Errorf("interned %d batches, want 2: none after the panic", n)
	}
	if n, h := db.NumRows("t"), mustHash(t, db, "t"); n != 2 || h != before {
		t.Errorf("after the panic: %d rows, hash changed %v; want the 2 earlier rows", n, h != before)
	}
}

// TestReadCSVReadErrorJoinsInterner: a read error after two batches
// fails the load with that error, and the interner exits with it.
func TestReadCSVReadErrorJoinsInterner(t *testing.T) {
	boom := errors.New("device gone")
	db, base := internTable(), runtime.NumGoroutine()
	r := io.MultiReader(strings.NewReader(internRows(2*csvBatchRows+7)), iotest.ErrReader(boom))
	if err := db.ReadCSV("t", r); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the read error", err)
	}
	waitGoroutines(t, base)
	if n := db.NumRows("t"); n != 0 {
		t.Errorf("rows = %d after a failed load, want 0", n)
	}
}
