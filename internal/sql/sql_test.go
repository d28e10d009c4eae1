package sql

import (
	"strings"
	"testing"

	"efes/internal/relational"
)

func testDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema("music")
	s.MustAddTable(relational.MustTable("artists",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "name", Type: relational.String},
	))
	s.MustAddTable(relational.MustTable("albums",
		relational.Column{Name: "id", Type: relational.Integer},
		relational.Column{Name: "title", Type: relational.String},
		relational.Column{Name: "artist_id", Type: relational.Integer},
		relational.Column{Name: "year", Type: relational.Integer},
		relational.Column{Name: "rating", Type: relational.Float},
	))
	s.MustAddConstraint(relational.PrimaryKey{Table: "artists", Columns: []string{"id"}})
	s.MustAddConstraint(relational.PrimaryKey{Table: "albums", Columns: []string{"id"}})
	db := relational.NewDatabase(s)
	db.MustInsert("artists", 1, "Velvet Foxes")
	db.MustInsert("artists", 2, "Iron Harbor")
	db.MustInsert("artists", 3, "Crimson Tide")
	db.MustInsert("albums", 10, "Run", 1, 1999, 4.5)
	db.MustInsert("albums", 11, "Fall", 1, 2003, 3.0)
	db.MustInsert("albums", 12, "Glow", 2, 2003, nil)
	db.MustInsert("albums", 13, "Drift", nil, 2010, 2.5)
	return db
}

func mustQuery(t *testing.T, db *relational.Database, q string) *Result {
	t.Helper()
	res, err := Query(db, q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT * FROM artists")
	if len(res.Rows) != 3 || len(res.Columns) != 2 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if res.Columns[0] != "artists.id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestProjectionAndWhere(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT title FROM albums WHERE year = 2003")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT title FROM albums WHERE year >= 2003 AND rating > 2.0")
	if len(res.Rows) != 2 { // Fall (3.0) and Drift (2.5); Glow has NULL rating
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT title FROM albums WHERE rating IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "Glow" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT title FROM albums WHERE artist_id IS NOT NULL AND title != 'Run'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLike(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT name FROM artists WHERE name LIKE '%o%'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT name FROM artists WHERE name LIKE 'Iron%'")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "Iron Harbor" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT name FROM artists WHERE name LIKE '%Tide'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !likeMatch("exact", "exact") || likeMatch("exact", "exactly") {
		t.Error("exact LIKE without wildcards")
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT albums.title, artists.name FROM albums JOIN artists ON albums.artist_id = artists.id ORDER BY title")
	if len(res.Rows) != 3 { // Drift has a NULL artist: no join partner
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].(string) != "Fall" || res.Rows[0][1].(string) != "Velvet Foxes" {
		t.Errorf("first row = %v", res.Rows[0])
	}
	// Aliases.
	res = mustQuery(t, db, "SELECT al.title FROM albums al JOIN artists ar ON al.artist_id = ar.id WHERE ar.name = 'Iron Harbor'")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "Glow" {
		t.Fatalf("alias rows = %v", res.Rows)
	}
}

func TestGroupByAndAggregates(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT artist_id, COUNT(*) FROM albums WHERE artist_id IS NOT NULL GROUP BY artist_id ORDER BY artist_id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].(int64) != 2 || res.Rows[1][1].(int64) != 1 {
		t.Errorf("counts = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT COUNT(*), COUNT(rating), COUNT(DISTINCT year), MIN(year), MAX(year), SUM(rating), AVG(rating) FROM albums")
	row := res.Rows[0]
	if row[0].(int64) != 4 || row[1].(int64) != 3 || row[2].(int64) != 3 {
		t.Errorf("counts = %v", row)
	}
	if row[3].(int64) != 1999 || row[4].(int64) != 2010 {
		t.Errorf("min/max = %v", row)
	}
	if row[5].(float64) != 10 {
		t.Errorf("sum = %v", row[5])
	}
	if avg := row[6].(float64); avg < 3.33 || avg > 3.34 {
		t.Errorf("avg = %v", avg)
	}
}

func TestAggregateOverEmptySet(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT COUNT(*) FROM albums WHERE year = 1800")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT title, year FROM albums ORDER BY year DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].(string) != "Drift" {
		t.Errorf("order = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT title FROM albums LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 = %v", res.Rows)
	}
}

func TestStringEscapes(t *testing.T) {
	db := testDB(t)
	db.MustInsert("artists", 4, "O'Brien")
	res := mustQuery(t, db, "SELECT id FROM artists WHERE name = 'O''Brien'")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM nope",
		"SELECT bogus FROM albums",
		"SELECT title FROM albums WHERE",
		"SELECT title FROM albums WHERE title LIKE 5",
		"SELECT title FROM albums WHERE title ** 5",
		"SELECT title FROM albums ORDER BY year", // not in select list
		"SELECT title, COUNT(*) FROM albums",     // non-grouped column
		"SELECT * FROM albums GROUP BY year",     // star with grouping
		"SELECT title FROM albums LIMIT -1",
		"SELECT title FROM albums trailing junk here",
		"SELECT name FROM artists WHERE name = 'unterminated",
		"SELECT id FROM albums JOIN artists ON bogus = id",
		"SELECT id FROM albums", // ambiguous only with join:
	}
	for _, q := range bad[:len(bad)-1] {
		if _, err := Query(db, q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	// Ambiguity: both tables have an id column after a join.
	if _, err := Query(db, "SELECT id FROM albums JOIN artists ON artist_id = artists.id"); err == nil {
		t.Error("ambiguous column must fail")
	}
}

func TestNullJoinSemantics(t *testing.T) {
	db := testDB(t)
	// NULL never joins: Drift must not appear even with a NULL artist row.
	res := mustQuery(t, db, "SELECT COUNT(*) FROM albums JOIN artists ON albums.artist_id = artists.id")
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("join count = %v", res.Rows)
	}
}

func TestResultString(t *testing.T) {
	db := testDB(t)
	res := mustQuery(t, db, "SELECT name FROM artists ORDER BY name LIMIT 1")
	s := res.String()
	for _, want := range []string{"name", "Crimson Tide", "(1 rows)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// NULLs render as NULL.
	res = mustQuery(t, db, "SELECT rating FROM albums WHERE rating IS NULL")
	if !strings.Contains(res.String(), "NULL") {
		t.Error("NULL rendering missing")
	}
}

func TestPaperStyleAnalysisQueries(t *testing.T) {
	// The kinds of "simple SQL queries" the EFES prototype runs for its
	// analysis (§6.2): violation counting and distinct-value statistics.
	db := testDB(t)
	// How many albums lack an artist (a NOT NULL violation after
	// integration)?
	res := mustQuery(t, db, "SELECT COUNT(*) FROM albums WHERE artist_id IS NULL")
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("violation count = %v", res.Rows)
	}
	// Distinct value count of an attribute (Table-6 style parameter).
	res = mustQuery(t, db, "SELECT COUNT(DISTINCT year) FROM albums")
	if res.Rows[0][0].(int64) != 3 {
		t.Errorf("distinct years = %v", res.Rows)
	}
	// Which artists have several albums (multiple-value candidates)?
	res = mustQuery(t, db, "SELECT artist_id, COUNT(*) FROM albums WHERE artist_id IS NOT NULL GROUP BY artist_id")
	multi := 0
	for _, row := range res.Rows {
		if row[1].(int64) > 1 {
			multi++
		}
	}
	if multi != 1 {
		t.Errorf("multi-album artists = %d, want 1", multi)
	}
}
