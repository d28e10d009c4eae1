package relational

import (
	"math"
	"slices"
	"testing"
	"time"
)

// coercionStrings are strings that parse as another type, padded or
// not, in each time layout, or nearly so.
var coercionStrings = []string{
	"42", " 42 ", "\t-7\n", "+3", "007", "9223372036854775807", "-9223372036854775808",
	"9223372036854775808", "3.14", " 2.5e3 ", "1e300", "-0", "NaN", "nan", "Inf", "-Inf",
	"infinity", "0x1p-2", "1_000", "1,5", "12x", "", "true", " FALSE ", "t", "F", "1", "0",
	"yes", "2021-01-02", "2021-01-02 13:14:15", "2021-01-02T13:14:15Z",
	"2021-01-02T13:14:15+01:00", " 2021-01-02 ", "2021-13-40", "2021-01-02T25:00:00Z",
	"abc", "héllo", "4:43",
}

// coercionInts and coercionFloats are the extreme values of the profile
// grid, and the floats at and past the ends of int64.
var (
	coercionInts   = []int64{math.MinInt64, math.MaxInt64, 0, -1, 42, 1<<53 + 1, -(1 << 53) - 1}
	coercionFloats = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e300,
		1 << 63, -(1 << 63), 9.3e18, 0.5, -2.25, 1e16, 1<<53 + 1, 42,
	}
	coercionZones = []*time.Location{time.UTC, time.FixedZone("", 3600), time.FixedZone("X", -5*3600-1800)}
)

// coercionCell draws one cell of a column of type typ from b: NULL, one
// of the values above, or a value spelled by the next bytes.
func coercionCell(b *fuzzBytes, typ Type) Value {
	sel := b.byte()
	if sel%5 == 0 {
		return nil
	}
	pool := sel%5 < 4
	switch typ {
	case String:
		if pool {
			return coercionStrings[int(b.byte())%len(coercionStrings)]
		}
		s := make([]byte, b.byte()%12)
		for i := range s {
			s[i] = b.byte()
		}
		return string(s)
	case Integer:
		if pool {
			return coercionInts[int(b.byte())%len(coercionInts)]
		}
		return int64(b.uint64())
	case Float:
		if pool {
			return coercionFloats[int(b.byte())%len(coercionFloats)]
		}
		return math.Float64frombits(b.uint64())
	case Bool:
		return sel&1 == 1
	default:
		// Years 1 to 9999, with a fraction of a second that RFC3339
		// drops, in one of three zones.
		const lo, hi = -62135596800, 253402300799
		ts := time.Unix(lo+int64(b.uint64()%(hi-lo+1)), int64(b.byte())*1e7)
		return ts.In(coercionZones[int(sel)%len(coercionZones)])
	}
}

// FuzzCoercedView builds a column of up to 64 rows of any of the five
// types from data and views it through each type. Row by row, the view
// must hold what Coerce makes of each value (sameCell: floats by bit
// pattern, times by instant, rendering and zone), in row order, with
// the values Coerce rejects left out and counted in dropped and the
// NULLs kept; a text view's dictionary must hold the distinct
// FormatValue renderings in first-occurrence order, with their counts.
// Seeds in testdata/fuzz/FuzzCoercedView.
func FuzzCoercedView(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		typ := Type(b.byte() % 5)
		s := NewSchema("fuzz")
		s.MustAddTable(MustTable("t", Column{Name: "c", Type: typ}))
		db := NewDatabase(s)
		for len(b) > 0 && db.NumRows("t") < 64 {
			db.MustInsert("t", coercionCell(&b, typ))
		}
		vec := db.Vector("t", "c")
		for to := String; to <= Time; to++ {
			checkCoercedView(t, vec, to)
		}
	})
}

// checkCoercedView checks vec.Coerced(to) against Coerce, row by row.
func checkCoercedView(t *testing.T, vec *ColumnVector, to Type) {
	t.Helper()
	view, dropped := vec.Coerced(to)
	if view.Type() != to {
		t.Fatalf("%v→%v: view type %v", vec.Type(), to, view.Type())
	}
	failed, r := 0, 0
	var dict []string
	counts := make(map[string]int)
	for i := 0; i < vec.Len(); i++ {
		want, err := Coerce(to, vec.Value(i))
		if err != nil {
			failed++
			continue
		}
		if r >= view.Len() {
			t.Fatalf("%v→%v: view has %d rows, want more", vec.Type(), to, view.Len())
		}
		if got := view.Value(r); !sameCell(got, want) {
			t.Fatalf("%v→%v: row %d (view row %d) = %#v, Coerce = %#v", vec.Type(), to, i, r, got, want)
		}
		if s, ok := want.(string); ok {
			if counts[s] == 0 {
				dict = append(dict, s)
			}
			counts[s]++
		}
		r++
	}
	if r != view.Len() || dropped != failed || view.NullCount() != vec.NullCount() {
		t.Fatalf("%v→%v: %d rows, %d dropped, %d NULLs; want %d, %d, %d",
			vec.Type(), to, view.Len(), dropped, view.NullCount(), r, failed, vec.NullCount())
	}
	if to != String {
		return
	}
	if !slices.Equal(view.Dict(), dict) {
		t.Fatalf("%v→text: dictionary %q, want %q", vec.Type(), view.Dict(), dict)
	}
	for c, s := range view.Dict() {
		if n := view.Counts()[c]; n != counts[s] || n <= 0 {
			t.Fatalf("%v→text: count of %q = %d, want %d", vec.Type(), s, n, counts[s])
		}
	}
}
