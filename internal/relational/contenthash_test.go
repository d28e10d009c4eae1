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
	if err := db.Update("artists", 1, "name", "Abba"); err != nil {
		t.Fatal(err)
	}
	h2 := mustHash(t, db, "artists")
	if h2 == h1 {
		t.Error("Update did not change the hash")
	}
	db.Delete("artists", 1)
	h3 := mustHash(t, db, "artists")
	if h3 != h0 {
		t.Errorf("delete back to the original content must restore the hash: %s vs %s", h3, h0)
	}
	// ReadCSV appends rows and must invalidate too.
	if err := db.ReadCSV("artists", strings.NewReader("id,name\n3,Kraftwerk\n")); err != nil {
		t.Fatal(err)
	}
	if h4 := mustHash(t, db, "artists"); h4 == h3 {
		t.Error("ReadCSV did not change the hash")
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
