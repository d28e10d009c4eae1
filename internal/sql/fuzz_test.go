package sql

import "testing"

// FuzzSQL runs arbitrary text through Parse and Query against testDB:
// neither panics, Query accepts only what Parse accepts, and an accepted
// query renders the same Result.String() when it runs again. The seed
// corpus in testdata/fuzz/FuzzSQL holds the queries of sql_test.go.
func FuzzSQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		_, perr := Parse(text)
		db := testDB(t)
		res, err := Query(db, text)
		if err != nil {
			return
		}
		if perr != nil {
			t.Fatalf("Query accepted %q, which Parse refuses: %v", text, perr)
		}
		again, err := Query(db, text)
		if err != nil {
			t.Fatalf("Query(%q) succeeded, then failed: %v", text, err)
		}
		if a, b := res.String(), again.String(); a != b {
			t.Fatalf("Query(%q) renders differently on a second run:\n%s\nthen:\n%s", text, a, b)
		}
	})
}
