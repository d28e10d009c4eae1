package relational

import (
	"strings"
	"testing"
	"time"
)

// TestTypedParsersMatchCoerce pins the typed parse helpers to Coerce's
// string semantics: same accepted spellings, same trimming, same
// rejections. Coerced relies on this equivalence for bit-identical
// coerced profiles.
func TestTypedParsersMatchCoerce(t *testing.T) {
	inputs := []string{
		"42", " 42\t", "-7", "3.5", "1e3", "-0", "NaN", "Inf",
		"true", "True", "1", "0", "t", "f", "yes",
		"2024-05-01T10:30:00Z", "2024-05-01 10:30:00", "2024-05-01",
		"", "  ", "abc", "12x", "2024-13-99",
	}
	for _, typ := range []Type{Integer, Float, Bool, Time} {
		for _, s := range inputs {
			want, wantErr := Coerce(typ, s)
			var got Value
			var gotErr error
			switch typ {
			case Integer:
				got, gotErr = ParseInt(s)
			case Float:
				got, gotErr = ParseFloat(s)
			case Bool:
				got, gotErr = ParseBool(s)
			case Time:
				got, gotErr = ParseTime(s)
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Errorf("%s(%q): error = %v, Coerce error = %v", typ, s, gotErr, wantErr)
				continue
			}
			if wantErr == nil && gotErr == nil && FormatValue(got) != FormatValue(want) {
				t.Errorf("%s(%q) = %v, Coerce = %v", typ, s, got, want)
			}
		}
	}
}

// parseTimeLayouts is ParseTime without its shape test: every layout in
// order, the first success or the first error. It is the oracle of
// TestParseTimeMatchesLayoutLoop.
func parseTimeLayouts(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	var firstErr error
	for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		ts, err := time.Parse(layout, s)
		if err == nil {
			return ts, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return time.Time{}, firstErr
}

// TestParseTimeMatchesLayoutLoop pins ParseTime's shape test: every
// input, accepted or not, gets the value, zone and error text of trying
// all three layouts in order. Coerce delegates to ParseTime, so
// TestTypedParsersMatchCoerce cannot see this.
func TestParseTimeMatchesLayoutLoop(t *testing.T) {
	inputs := []string{
		"42", " 42\t", "-7", "3.5", "1e3", "-0", "NaN", "Inf",
		"true", "True", "1", "0", "t", "f", "yes",
		"2024-05-01T10:30:00Z", "2024-05-01 10:30:00", "2024-05-01",
		"", "  ", "abc", "12x", "2024-13-99",
		// Offset zones and fractional seconds.
		"2024-05-01T10:30:00+02:00", "2024-05-01T10:30:00-07:30",
		"2024-05-01T10:30:00.123Z", "2024-05-01 10:30:00.5",
		// Padded and truncated spellings.
		" 2024-05-01 ", "\t2024-05-01 10:30:00\n", " 2024-05-01T10:30:00Z ",
		"2024-05-0", "2024-05-01 10:30", "2024-05-01 10:30:0", "2024-05-01T10:30:00", "2024-05-01T",
		// A zone on the space layout, and other near misses.
		"2024-05-01 10:30:00Z", "2024-05-01 10:30:00+02:00", "2024-05-01  10:30:00",
		"2024-05-01t10:30:00Z", "2024/05/01", "2024-02-30", "2024-05-01X10:30:00",
		"20240-05-01", "2024-5-1", "2024-05-01 25:00:00",
	}
	for _, s := range inputs {
		want, wantErr := parseTimeLayouts(s)
		got, gotErr := ParseTime(s)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("ParseTime(%q): error = %v, want %v", s, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("ParseTime(%q): error %q, want %q", s, gotErr, wantErr)
			}
			continue
		}
		if !got.Equal(want) || got.String() != want.String() {
			t.Errorf("ParseTime(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestTypedFormattersMatchFormatValue pins FormatFloat and FormatTime to
// FormatValue's renderings.
func TestTypedFormattersMatchFormatValue(t *testing.T) {
	for _, x := range []float64{0, -0.0, 1, -1.5, 1e300, 0.1} {
		if got, want := FormatFloat(x), FormatValue(x); got != want {
			t.Errorf("FormatFloat(%v) = %q, FormatValue = %q", x, got, want)
		}
	}
	for _, ts := range []time.Time{
		time.Date(2024, 5, 1, 10, 30, 0, 0, time.UTC),
		time.Date(1999, 12, 31, 23, 59, 59, 0, time.FixedZone("", 3600)),
	} {
		if got, want := FormatTime(ts), FormatValue(ts); got != want {
			t.Errorf("FormatTime(%v) = %q, FormatValue = %q", ts, got, want)
		}
	}
}

// TestTypedParsersDoNotAllocate is the hotalloc regression: parsing a
// valid string must not heap-allocate (the interface boxing of Coerce's
// return value is exactly what the typed helpers exist to avoid).
func TestTypedParsersDoNotAllocate(t *testing.T) {
	checks := map[string]func(){
		"ParseInt":   func() { _, _ = ParseInt(" 42 ") },
		"ParseFloat": func() { _, _ = ParseFloat("3.5") },
		"ParseBool":  func() { _, _ = ParseBool("true") },
		"ParseTime":  func() { _, _ = ParseTime("2024-05-01T10:30:00Z") },
		// The later layouts: each failed attempt at an earlier one
		// would allocate its error.
		"ParseTime/date":     func() { _, _ = ParseTime("2024-05-01") },
		"ParseTime/datetime": func() { _, _ = ParseTime("2024-05-01 10:30:00") },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
