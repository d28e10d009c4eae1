package relational

import (
	"reflect"
	"slices"
	"testing"
)

func stringTableDB(t *testing.T) *Database {
	t.Helper()
	s := NewSchema("cv")
	tab, err := NewTable("songs",
		Column{Name: "title", Type: String},
		Column{Name: "plays", Type: Integer},
	)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := NewDatabase(s)
	db.MustInsert("songs", "a", int64(1))
	db.MustInsert("songs", "b", int64(2))
	db.MustInsert("songs", "a", nil)
	db.MustInsert("songs", nil, int64(2))
	return db
}

func TestVectorDictionaryEncoding(t *testing.T) {
	db := stringTableDB(t)
	vec := db.Vector("songs", "title")
	if vec == nil {
		t.Fatal("Vector returned nil")
	}
	if vec.Type() != String || vec.Len() != 4 || vec.NullCount() != 1 {
		t.Fatalf("vector shape: type=%v len=%d nulls=%d", vec.Type(), vec.Len(), vec.NullCount())
	}
	if got := vec.Dict(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("dict = %v", got)
	}
	if got := vec.Counts(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("counts = %v", got)
	}
	if got := vec.Codes(); !reflect.DeepEqual(got, []int32{0, 1, 0, 0}) {
		t.Fatalf("codes = %v", got)
	}
	if vec.Null(2) || !vec.Null(3) {
		t.Fatalf("null bitmap: row2=%v row3=%v", vec.Null(2), vec.Null(3))
	}
	if v := vec.Value(1); v != "b" {
		t.Fatalf("Value(1) = %v", v)
	}
	if v := vec.Value(3); v != nil {
		t.Fatalf("Value(3) = %v, want nil", v)
	}
	if got := sortedText(vec); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("sorted distinct = %v", got)
	}
}

// sortedText is a column's distinct renderings, sorted: a sorted copy of
// its text view's dictionary.
func sortedText(v *ColumnVector) []string {
	text, _ := v.Coerced(String)
	out := slices.Clone(text.Dict())
	slices.Sort(out)
	return out
}

// TestVectorIncrementalMaintenance inserts into a table whose vector,
// distinct renderings and row view were read: the vector the reader
// holds grows in place, its counts and distinct renderings follow, and
// the rows are derived again, aligned with it.
func TestVectorIncrementalMaintenance(t *testing.T) {
	db := stringTableDB(t)
	vec := db.Vector("songs", "title")
	if got := sortedText(vec); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("sorted distinct = %v", got)
	}
	if n := len(db.Rows("songs")); n != 4 {
		t.Fatalf("rows = %d, want 4", n)
	}
	db.MustInsert("songs", "c", int64(3))
	db.MustInsert("songs", "b", nil)
	if vec.Len() != 6 || vec.Value(4) != "c" || vec.Value(5) != "b" {
		t.Fatalf("after inserts: len=%d last=%v,%v", vec.Len(), vec.Value(4), vec.Value(5))
	}
	if got := vec.Counts(); !reflect.DeepEqual(got, []int{2, 2, 1}) {
		t.Fatalf("counts after inserts = %v", got)
	}
	if got := sortedText(vec); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("sorted distinct after inserts = %v", got)
	}
	rows := db.Rows("songs")
	if len(rows) != vec.Len() {
		t.Fatalf("row/vector length mismatch: %d vs %d", len(rows), vec.Len())
	}
	plays := db.Vector("songs", "plays")
	for i, row := range rows {
		if !reflect.DeepEqual(row[0], vec.Value(i)) || !reflect.DeepEqual(row[1], plays.Value(i)) {
			t.Errorf("row %d: row view %v, vectors %v, %v", i, row, vec.Value(i), plays.Value(i))
		}
	}
}

func TestVectorUnknownAndClone(t *testing.T) {
	db := stringTableDB(t)
	if db.Vector("nope", "title") != nil || db.Vector("songs", "nope") != nil {
		t.Fatal("Vector must return nil for unknown table/column")
	}
	if db.Vectors("nope") != nil {
		t.Fatal("Vectors must return nil for unknown table")
	}
	db.MustInsert("songs", "c", int64(3)) // the slices now have spare capacity
	vec := db.Vector("songs", "title")
	cl := db.Clone()
	// The clone copies the vectors: inserting a new dictionary entry into
	// each must not show in the other.
	cl.MustInsert("songs", "q", int64(9))
	db.MustInsert("songs", "z", int64(8))
	if got := db.Vector("songs", "title"); got != vec || got.Len() != 6 || got.Value(5) != "z" || !reflect.DeepEqual(got.Dict(), []string{"a", "b", "c", "z"}) {
		t.Fatalf("original vector: len=%d dict=%v", got.Len(), got.Dict())
	}
	if cv := cl.Vector("songs", "title"); cv == vec || cv.Len() != 6 || cv.Value(5) != "q" || !reflect.DeepEqual(cv.Dict(), []string{"a", "b", "c", "q"}) {
		t.Fatalf("clone vector: len=%d dict=%v", cv.Len(), cv.Dict())
	}
	if got, want := cl.Vector("songs", "plays").Ints()[5], int64(9); got != want {
		t.Fatalf("clone plays[5] = %d, want %d", got, want)
	}
}

func TestBitmap(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Get(1000) {
		t.Fatal("empty bitmap must read unset")
	}
	b.set(0)
	b.set(63)
	b.set(64)
	b.set(200)
	for _, i := range []int{0, 63, 64, 200} {
		if !b.Get(i) {
			t.Errorf("bit %d unset", i)
		}
	}
	if b.Get(1) || b.Get(199) || b.Get(201) {
		t.Error("unexpected bits set")
	}
}
