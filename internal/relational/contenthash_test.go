package relational

import (
	"strings"
	"testing"
)

// The content hash is the address of the durable caches: it must be a pure
// function of the table's serialized content (stable across instances and
// processes), and every mutation path must invalidate the memo.

func TestContentHashStableAcrossInstances(t *testing.T) {
	build := func() *Database {
		db := NewDatabase(testSchema(t))
		db.MustInsert("artists", 1, "Queen")
		db.MustInsert("artists", 2, nil)
		db.MustInsert("albums", 1, "A Night at the Opera", 1, 9.5)
		return db
	}
	a, b := build(), build()
	ha, err := a.ContentHash("artists")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.ContentHash("artists")
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("identical content hashed differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 || strings.ToLower(ha) != ha {
		t.Errorf("want lowercase hex sha256, got %q", ha)
	}
	// Memoized: a second call returns the same string.
	again, err := a.ContentHash("artists")
	if err != nil {
		t.Fatal(err)
	}
	if again != ha {
		t.Errorf("memoized hash changed: %s vs %s", again, ha)
	}
	// Different tables, different content, different hashes.
	hAlbums, err := a.ContentHash("albums")
	if err != nil {
		t.Fatal(err)
	}
	if hAlbums == ha {
		t.Error("distinct tables hashed equal")
	}
	if _, err := a.ContentHash("nope"); err == nil {
		t.Error("unknown table must error")
	}
}

func TestContentHashInvalidatedByMutations(t *testing.T) {
	db := NewDatabase(testSchema(t))
	db.MustInsert("artists", 1, "Queen")
	h0 := mustHash(t, db, "artists")

	db.MustInsert("artists", 2, "ABBA")
	h1 := mustHash(t, db, "artists")
	if h1 == h0 {
		t.Error("Insert did not change the hash")
	}
	// The same content, loaded where the first was inserted, hashes the
	// same.
	loaded := NewDatabase(db.Schema)
	if err := loaded.ReadCSV("artists", strings.NewReader("id,name\n1,Queen\n")); err != nil {
		t.Fatal(err)
	}
	if h := mustHash(t, loaded, "artists"); h != h0 {
		t.Errorf("loaded hash %s, inserted %s", h, h0)
	}
	loaded.MustInsert("artists", 2, "ABBA")
	if h := mustHash(t, loaded, "artists"); h != h1 {
		t.Errorf("loaded then inserted hash %s, inserted %s", h, h1)
	}
	// ReadCSV appends rows and must invalidate too.
	if err := db.ReadCSV("artists", strings.NewReader("id,name\n3,Kraftwerk\n")); err != nil {
		t.Fatal(err)
	}
	if h2 := mustHash(t, db, "artists"); h2 == h1 {
		t.Error("ReadCSV did not change the hash")
	}
}

// TestInsertEmptyStringIsNull: WriteCSV writes an inserted "" and a
// NULL alike, so the two tables share one content hash; Insert stores
// "" as NULL, as the CSV round trip reads it back, so that they have
// equal vectors too.
func TestInsertEmptyStringIsNull(t *testing.T) {
	s := NewSchema("empty")
	s.MustAddTable(MustTable("t", Column{Name: "s", Type: String}, Column{Name: "n", Type: Integer}))
	s.MustAddTable(MustTable("lone", Column{Name: "s", Type: String}))
	empty, null := NewDatabase(s), NewDatabase(s)
	for _, c := range []struct {
		db *Database
		v  Value
	}{{empty, ""}, {null, nil}} {
		c.db.MustInsert("t", "x", int64(1))
		c.db.MustInsert("t", c.v, int64(2))
		c.db.MustInsert("lone", c.v)
		c.db.MustInsert("lone", "x")
	}
	for _, tab := range s.Tables() {
		if h, w := mustHash(t, empty, tab.Name), mustHash(t, null, tab.Name); h != w {
			t.Errorf("%s: hash with \"\" %s, with NULL %s", tab.Name, h, w)
		}
		for i, v := range empty.Vectors(tab.Name) {
			assertSameVector(t, tab.Name+"."+tab.Columns[i].Name, v, null.Vectors(tab.Name)[i])
		}
		if v := empty.Vector(tab.Name, "s"); v.NullCount() != 1 || len(v.Dict()) != 1 {
			t.Errorf("%s: %d NULLs, dict %q; want the \"\" row NULL", tab.Name, v.NullCount(), v.Dict())
		}
	}
}

// ReadCSV after a materialized columnar view must not leave the view
// stale (the load rebuilds the vectors over the old and new rows).
func TestReadCSVDropsStaleVectors(t *testing.T) {
	db := NewDatabase(testSchema(t))
	db.MustInsert("artists", 1, "Queen")
	if vec := db.Vector("artists", "name"); vec == nil {
		t.Fatal("no vector")
	}
	if err := db.ReadCSV("artists", strings.NewReader("id,name\n2,ABBA\n")); err != nil {
		t.Fatal(err)
	}
	vec := db.Vector("artists", "name")
	if vec == nil {
		t.Fatal("no vector after ReadCSV")
	}
	if got := vec.Len(); got != 2 {
		t.Errorf("vector length after ReadCSV = %d, want 2 (stale vector not dropped)", got)
	}
}

func mustHash(t *testing.T, db *Database, table string) string {
	t.Helper()
	h, err := db.ContentHash(table)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
