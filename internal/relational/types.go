// Package relational implements an in-memory relational data store: typed
// schemas, constraints, columnar instances, validation, and CSV
// serialization.
//
// It is the storage substrate of the EFES reproduction. The original paper
// keeps its datasets in PostgreSQL and inspects them with "simple SQL
// queries"; this package offers the equivalent operations over the same
// relational model so that every detector in the framework can run against
// it without an external database.
package relational

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the column datatypes supported by the store.
type Type int

// Supported column datatypes.
const (
	// String is arbitrary text.
	String Type = iota
	// Integer is a 64-bit signed integer.
	Integer
	// Float is a 64-bit IEEE floating point number.
	Float
	// Bool is a boolean.
	Bool
	// Time is a point in time.
	Time
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case String:
		return "text"
	case Integer:
		return "integer"
	case Float:
		return "double"
	case Bool:
		return "boolean"
	case Time:
		return "timestamp"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a type name as produced by Type.String. It also accepts
// a few common aliases (varchar, int, bigint, real, numeric, date).
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text", "string", "varchar", "char":
		return String, nil
	case "integer", "int", "bigint", "smallint", "serial":
		return Integer, nil
	case "double", "float", "real", "numeric", "decimal":
		return Float, nil
	case "boolean", "bool":
		return Bool, nil
	case "timestamp", "time", "date", "datetime":
		return Time, nil
	default:
		return String, fmt.Errorf("relational: unknown type %q", s)
	}
}

// Value is a single cell value. A nil Value represents SQL NULL. Non-nil
// values must be of the Go type matching the column's Type: string, int64,
// float64, bool, or time.Time.
type Value interface{}

// ValidValue reports whether v is an acceptable value for a column of
// type t. NULL (nil) is always acceptable at the value level; NOT NULL is
// enforced by constraints.
func ValidValue(t Type, v Value) bool {
	if v == nil {
		return true
	}
	switch t {
	case String:
		_, ok := v.(string)
		return ok
	case Integer:
		_, ok := v.(int64)
		return ok
	case Float:
		_, ok := v.(float64)
		return ok
	case Bool:
		_, ok := v.(bool)
		return ok
	case Time:
		_, ok := v.(time.Time)
		return ok
	default:
		return false
	}
}

// Coerce converts v into the canonical Go representation for type t.
// Integers are widened from any Go integer type, float32 is widened to
// float64, and strings are parsed when the target type is not String.
// A value that already has the canonical type is returned as it is. It
// returns an error when the conversion is impossible.
func Coerce(t Type, v Value) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case String:
		switch x := v.(type) {
		case string:
			return v, nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		case int:
			return strconv.Itoa(x), nil
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case bool:
			return strconv.FormatBool(x), nil
		case time.Time:
			return x.Format(time.RFC3339), nil
		}
	case Integer:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case float64:
			if n, ok := floatToInt(x); ok {
				return n, nil
			}
		case string:
			if n, err := ParseInt(x); err == nil {
				return n, nil
			}
		}
	case Float:
		switch x := v.(type) {
		case float64:
			return v, nil
		case float32:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		case string:
			if f, err := ParseFloat(x); err == nil {
				return f, nil
			}
		}
	case Bool:
		switch x := v.(type) {
		case bool:
			return v, nil
		case string:
			if b, err := ParseBool(x); err == nil {
				return b, nil
			}
		}
	case Time:
		switch x := v.(type) {
		case time.Time:
			return v, nil
		case string:
			if ts, err := ParseTime(x); err == nil {
				return ts, nil
			}
		}
	}
	return nil, fmt.Errorf("relational: cannot coerce %T(%v) to %s", v, v, t)
}

// floatToInt converts x to an Integer value when x is integral and
// -2^63 <= x < 2^63. Go leaves the conversion of any other float, such
// as 1e300 or an infinity, to the implementation, which on amd64 yields
// MinInt64. Coerce and Coerced share it.
func floatToInt(x float64) (int64, bool) {
	if x != math.Trunc(x) || x < -(1<<63) || x >= 1<<63 {
		return 0, false
	}
	return int64(x), true
}

// Castable reports whether v can be coerced to type t. NULLs are castable
// to every type.
func Castable(t Type, v Value) bool {
	_, err := Coerce(t, v)
	return err == nil
}

// FormatValue renders v for display and CSV output. NULL renders as the
// empty string.
func FormatValue(v Value) string {
	if v == nil {
		return ""
	}
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return FormatFloat(x)
	case bool:
		return strconv.FormatBool(x)
	case time.Time:
		return FormatTime(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// CompareValues orders two values of the same type. NULL sorts before all
// non-NULL values. It returns -1, 0, or +1.
func CompareValues(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case string:
		y, _ := b.(string)
		return strings.Compare(x, y)
	case int64:
		y, _ := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y, _ := b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case bool:
		y, _ := b.(bool)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	case time.Time:
		y, _ := b.(time.Time)
		switch {
		case x.Before(y):
			return -1
		case x.After(y):
			return 1
		}
		return 0
	default:
		return strings.Compare(FormatValue(a), FormatValue(b))
	}
}
