package relational

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// refDict is the reference dictionary of the tests, independent of the
// dictionary index: a Go map assigns codes in first-occurrence order, and
// counts occurrences. A NULL row takes code 0 and counts nothing.
type refDict struct {
	code   map[string]int32
	dict   []string
	counts []int
	codes  []int32
}

func newRefDict() *refDict { return &refDict{code: make(map[string]int32)} }

// intern returns the code of s, adding it with count 0 when unseen.
func (r *refDict) intern(s string) int32 {
	c, ok := r.code[s]
	if !ok {
		c = int32(len(r.dict))
		r.code[s] = c
		r.dict = append(r.dict, s)
		r.counts = append(r.counts, 0)
	}
	return c
}

// add records one cell of a string column: a string or NULL. The empty
// string is NULL.
func (r *refDict) add(val Value) {
	if val == nil || val == "" {
		r.codes = append(r.codes, 0)
		return
	}
	c := r.intern(val.(string))
	r.counts[c]++
	r.codes = append(r.codes, c)
}

// assertDictMatches compares the dictionary, counts and codes of v with
// the reference, and checks that every entry resolves to its own code.
func assertDictMatches(t *testing.T, name string, v *ColumnVector, r *refDict) {
	t.Helper()
	if !equalSlices(v.Dict(), r.dict, func(a, b string) bool { return a == b }) {
		t.Fatalf("%s: dict = %q, reference %q", name, v.Dict(), r.dict)
	}
	if !equalSlices(v.Counts(), r.counts, func(a, b int) bool { return a == b }) {
		t.Fatalf("%s: counts = %v, reference %v", name, v.Counts(), r.counts)
	}
	if !equalSlices(v.Codes(), r.codes, func(a, b int32) bool { return a == b }) {
		t.Fatalf("%s: codes = %v, reference %v", name, v.Codes(), r.codes)
	}
	assertResolves(t, name, v)
}

// assertResolves checks that every dictionary entry of a sealed vector
// resolves to its own code through the index, adding no entry.
func assertResolves(t *testing.T, name string, v *ColumnVector) {
	t.Helper()
	n := len(v.counts)
	for c, s := range v.dict {
		if got := v.intern(s); got != int32(c) {
			t.Fatalf("%s: %q resolves to code %d, want %d", name, s, got, c)
		}
	}
	if len(v.counts) != n || len(v.dict) != n {
		t.Fatalf("%s: resolving the dictionary added entries: %d codes, %d entries, want %d", name, len(v.counts), len(v.dict), n)
	}
}

// FuzzDictionary interns the fields of data, split at sep, and checks the
// dictionary against the reference: through pushField and pushValue
// (the empty field is NULL for both), again after seal through pushValue,
// the path Insert takes, with every field and a suffixed variant of it,
// and through internHashed with a constant hash, so that every probe
// collides.
//
// The seed corpus in testdata/fuzz/FuzzDictionary covers NULLs, invalid
// UTF-8, duplicates, values of several kilobytes, and a thousand distinct
// values, enough to grow the slot table seven times.
func FuzzDictionary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, sep byte) {
		fields := bytes.Split(data, []byte{sep})
		ref := newRefDict()
		byField, byValue := newColumnVector(String), newColumnVector(String)
		for _, b := range fields {
			var val Value
			if len(b) > 0 {
				val = string(b)
			}
			ref.add(val)
			byField.pushField(b)
			byValue.pushValue(val)
		}
		// Under construction every entry is in the arena.
		for c, s := range ref.dict {
			b := []byte(s)
			if got := internHashed(byField, b, hashBytes(b)); got != int32(c) {
				t.Fatalf("before seal: %q resolves to %d, want %d", s, got, c)
			}
		}
		byField.seal()
		byValue.seal()
		assertDictMatches(t, "pushField", byField, ref)
		assertDictMatches(t, "pushValue", byValue, ref)

		for _, b := range fields {
			for _, val := range []Value{string(b), string(b) + "\x00"} {
				ref.add(val)
				byField.pushValue(val)
			}
		}
		assertDictMatches(t, "pushValue after seal", byField, ref)

		collide, cref := newColumnVector(String), newRefDict()
		for _, b := range fields {
			if got, want := internHashed(collide, b, 0), cref.intern(string(b)); got != want {
				t.Fatalf("constant hash: %q interned as %d, want %d", b, got, want)
			}
		}
		collide.seal()
		if !equalSlices(collide.Dict(), cref.dict, func(a, b string) bool { return a == b }) {
			t.Fatalf("constant hash: dict = %q, reference %q", collide.Dict(), cref.dict)
		}
	})
}

// TestDictionaryLiveInterning: a sealed column rebuilds its index on the
// first intern, and values interned from then on are appended to the
// dictionary as they arrive, in first-occurrence order.
func TestDictionaryLiveInterning(t *testing.T) {
	db := NewDatabase(allTypesSchema())
	if err := db.ReadCSV("t", strings.NewReader("s,i,f,b,ts\nb,,,,\na,,,,\nb,,,,\n")); err != nil {
		t.Fatal(err)
	}
	v := db.Vector("t", "s")
	if v.index.slots != nil || v.index.arena != nil || !v.sealed {
		t.Fatalf("a sealed vector keeps its index: %d slots, %d arena bytes, sealed %v", len(v.index.slots), len(v.index.arena), v.sealed)
	}
	db.MustInsert("t", "c", nil, nil, nil, nil)
	db.MustInsert("t", "a", nil, nil, nil, nil)
	db.MustInsert("t", "d", nil, nil, nil, nil)
	ref := newRefDict()
	for _, s := range []string{"b", "a", "b", "c", "a", "d"} {
		ref.add(s)
	}
	assertDictMatches(t, "s", v, ref)
}

// TestReadCSVDictAllocBound: a column of distinct strings costs no
// allocation per value. Their bytes go to one arena per column that seal
// turns into one string, and the index grows by doubling.
func TestReadCSVDictAllocBound(t *testing.T) {
	s := NewSchema("alloc")
	s.MustAddTable(MustTable("t",
		Column{Name: "id", Type: Integer},
		Column{Name: "name", Type: String},
	))
	const rows = 20000
	var b strings.Builder
	b.WriteString("id,name\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,artist %d\n", i, i)
	}
	input := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if err := NewDatabase(s).ReadCSV("t", strings.NewReader(input)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 256 {
		t.Errorf("ReadCSV of %d distinct strings allocates %.0f times, want <= 256", rows, allocs)
	}
}
