package relational

import (
	"strings"
	"testing"
)

func csvFaultDB(t *testing.T) *Database {
	t.Helper()
	s := NewSchema("faulty")
	s.MustAddTable(MustTable("tracks",
		Column{Name: "id", Type: Integer},
		Column{Name: "title", Type: String},
		Column{Name: "length", Type: Float},
	))
	return NewDatabase(s)
}

func TestFaultyCSVRowLeavesTableUntouched(t *testing.T) {
	db := csvFaultDB(t)
	if err := db.Insert("tracks", int64(1), "intact", 1.5); err != nil {
		t.Fatal(err)
	}
	// Two good rows around a bad one: the load must be atomic, so not
	// even the leading good row may be committed.
	input := "id,title,length\n2,ok,2.5\n3,bad,not-a-number\n4,ok,4.5\n"
	err := db.ReadCSV("tracks", strings.NewReader(input))
	if err == nil {
		t.Fatal("malformed float must fail the load")
	}
	if rows := db.Rows("tracks"); len(rows) != 1 {
		t.Errorf("rows = %d, want only the pre-existing row (atomic load)", len(rows))
	}
}

func TestFaultyCSVErrorNamesLineAndColumn(t *testing.T) {
	db := csvFaultDB(t)
	input := "id,title,length\n1,ok,1.0\nnope,bad,2.0\n"
	err := db.ReadCSV("tracks", strings.NewReader(input))
	if err == nil {
		t.Fatal("malformed integer must fail the load")
	}
	// The bad field is on input line 3 (1-based, counting the header),
	// in the "id" column.
	for _, want := range []string{"line 3", "column id", "tracks"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestFaultFreeCSVRoundTripStillWorks(t *testing.T) {
	db := csvFaultDB(t)
	input := "id,title,length\n1,one,1.5\n2,,\n"
	if err := db.ReadCSV("tracks", strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	rows := db.Rows("tracks")
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[1][1] != nil || rows[1][2] != nil {
		t.Errorf("empty fields must load as NULL: %v", rows[1])
	}
}

// A schema may declare a table without columns (`table t()`), and an
// upload can pair it with any CSV: a header with fields is a mismatch,
// reported as an error rather than an index panic.
func TestCSVForTableWithoutColumnsFailsCleanly(t *testing.T) {
	s, err := ParseSchemaText("schema s\n  table empty()\n")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	err = db.ReadCSV("empty", strings.NewReader("a,b\n1,2\n"))
	if err == nil || !strings.Contains(err.Error(), "header mismatch for empty") {
		t.Fatalf("err = %v, want a header mismatch", err)
	}
	if db.NumRows("empty") != 0 {
		t.Errorf("rows = %d, want 0", db.NumRows("empty"))
	}
}
