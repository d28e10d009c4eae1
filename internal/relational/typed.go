package relational

// Typed parse/format helpers: the string↔typed conversions behind Coerce
// and FormatValue, exposed without interface boxing so that CSV ingest
// (pushField) and coerced views (Coerced) convert a field or a
// dictionary entry without allocating per value. Coerce and FormatValue
// delegate here, so the row path and the columnar paths share one
// implementation by construction.

import (
	"strconv"
	"strings"
	"time"
)

// ParseInt parses a string as an Integer value with Coerce's string
// semantics: surrounding space trimmed, base 10, 64-bit.
func ParseInt(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
}

// ParseFloat parses a string as a Float value with Coerce's string
// semantics.
func ParseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// ParseBool parses a string as a Bool value with Coerce's string
// semantics (strconv.ParseBool's accepted spellings).
func ParseBool(s string) (bool, error) {
	return strconv.ParseBool(strings.TrimSpace(s))
}

// timeLayouts are the accepted Time renderings, most specific first.
var timeLayouts = []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"}

// ParseTime parses a string as a Time value, trying the same layouts in
// the same order as Coerce. Each failed attempt allocates its error, so
// the one layout the trimmed field's shape admits is tried first: only
// RFC3339 has a 'T' at byte 10, only the second layout a space there,
// and only the third is 10 bytes long, so no layout before it can accept
// the field. If it fails, all three run in order, so the error returned
// is the first layout's.
func ParseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if layout := timeLayoutOf(s); layout != "" {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts, nil
		}
	}
	var firstErr error
	for _, layout := range timeLayouts {
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

// timeLayoutOf returns the layout of timeLayouts that s's length and
// byte 10 admit, or "" if s has none of their shapes.
func timeLayoutOf(s string) string {
	switch {
	case len(s) == 10:
		return timeLayouts[2]
	case len(s) == 19 && s[10] == ' ':
		return timeLayouts[1]
	case len(s) > 10 && s[10] == 'T':
		return timeLayouts[0]
	}
	return ""
}

// FormatFloat renders a float exactly as FormatValue does.
func FormatFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// FormatTime renders a time exactly as FormatValue does.
func FormatTime(t time.Time) string {
	return t.Format(time.RFC3339)
}
