// Package value implements the typed value system used throughout the
// DD-DGMS platform. Clinical data is heterogeneous — demographics are
// strings, blood measures are floats, visit counts are integers, test dates
// are timestamps — and almost every attribute can be missing for any given
// attendance. Value is a small immutable tagged union covering exactly
// those cases, with a first-class NA (missing) state.
//
// Value contains only comparable fields, so it can be used directly as a
// map key; this property is load-bearing for dimension member lookup in the
// warehouse and for group-by in the storage engine.
package value

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the dynamic type held by a Value.
type Kind uint8

// The supported kinds. NA is the zero Kind so that the zero Value is a
// missing value, which is the correct default for clinical records.
const (
	NAKind Kind = iota
	IntKind
	FloatKind
	StringKind
	BoolKind
	TimeKind
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case NAKind:
		return "na"
	case IntKind:
		return "int"
	case FloatKind:
		return "float"
	case StringKind:
		return "string"
	case BoolKind:
		return "bool"
	case TimeKind:
		return "time"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an immutable tagged union of the supported clinical value types.
// The zero Value is NA.
type Value struct {
	kind Kind
	i    int64   // IntKind, BoolKind (0/1), TimeKind (unix nanoseconds)
	f    float64 // FloatKind
	s    string  // StringKind
}

// NA returns the missing value.
func NA() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: IntKind, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: FloatKind, f: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: StringKind, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: BoolKind, i: i}
}

// Time returns a timestamp value with nanosecond precision.
func Time(t time.Time) Value { return Value{kind: TimeKind, i: t.UnixNano()} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNA reports whether v is the missing value.
func (v Value) IsNA() bool { return v.kind == NAKind }

// Int returns the integer payload. It panics if the kind is not IntKind.
func (v Value) Int() int64 {
	if v.kind != IntKind {
		panic(fmt.Sprintf("value: Int called on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload. It panics if the kind is not FloatKind.
func (v Value) Float() float64 {
	if v.kind != FloatKind {
		panic(fmt.Sprintf("value: Float called on %s value", v.kind))
	}
	return v.f
}

// Str returns the string payload. It panics if the kind is not StringKind.
func (v Value) Str() string {
	if v.kind != StringKind {
		panic(fmt.Sprintf("value: Str called on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the kind is not BoolKind.
func (v Value) Bool() bool {
	if v.kind != BoolKind {
		panic(fmt.Sprintf("value: Bool called on %s value", v.kind))
	}
	return v.i != 0
}

// Time returns the timestamp payload in UTC. It panics if the kind is not
// TimeKind.
func (v Value) Time() time.Time {
	if v.kind != TimeKind {
		panic(fmt.Sprintf("value: Time called on %s value", v.kind))
	}
	return time.Unix(0, v.i).UTC()
}

// AsFloat coerces numeric values (Int, Float, Bool) to float64. The second
// result reports whether the coercion was possible. NA and non-numeric
// kinds return (0, false).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case IntKind, BoolKind:
		return float64(v.i), true
	case FloatKind:
		return v.f, true
	}
	return 0, false
}

// String renders the value for display. NA renders as "NA". Timestamps use
// RFC 3339. This is the format emitted by CSV export and parsed back by
// Parse.
func (v Value) String() string {
	switch v.kind {
	case NAKind:
		return "NA"
	case IntKind:
		return strconv.FormatInt(v.i, 10)
	case FloatKind:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case StringKind:
		return v.s
	case BoolKind:
		return strconv.FormatBool(v.i != 0)
	case TimeKind:
		return v.Time().Format(time.RFC3339)
	}
	return "NA"
}

// Equal reports whether two values have the same kind and payload. NA is
// equal to NA (this is the map-key semantics, not SQL three-valued logic;
// callers that need SQL semantics must test IsNA first).
func (v Value) Equal(o Value) bool { return v == o }

// Compare orders two values. NA sorts before everything. Values of
// different kinds order by kind. Within a kind the natural order applies.
// The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case NAKind:
		return 0
	case IntKind, BoolKind, TimeKind:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case FloatKind:
		switch {
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		}
		return 0
	case StringKind:
		return strings.Compare(v.s, o.s)
	}
	return 0
}

// Less reports whether v orders before o under Compare.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Parse converts a textual field into a Value using permissive clinical
// conventions: empty string, "NA", "N/A", "null", "missing" and "?" parse
// as NA; then integer, float, boolean ("true"/"false", "yes"/"no",
// "y"/"n") and RFC 3339 / "2006-01-02" timestamps are tried in order;
// anything else is a string.
func Parse(s string) Value {
	t := strings.TrimSpace(s)
	switch strings.ToLower(t) {
	case "", "na", "n/a", "null", "nil", "missing", "?":
		return NA()
	case "true", "yes", "y":
		return Bool(true)
	case "false", "no", "n":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	if tm, err := time.Parse(time.RFC3339, t); err == nil {
		return Time(tm)
	}
	if tm, err := time.Parse("2006-01-02", t); err == nil {
		return Time(tm)
	}
	return Str(t)
}

// ParseAs converts a textual field into a Value of the requested kind,
// returning an error if the text cannot represent that kind. NA spellings
// are accepted for every kind.
func ParseAs(s string, k Kind) (Value, error) {
	t := strings.TrimSpace(s)
	switch strings.ToLower(t) {
	case "", "na", "n/a", "null", "nil", "missing", "?":
		return NA(), nil
	}
	switch k {
	case NAKind:
		return NA(), nil
	case IntKind:
		i, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return NA(), fmt.Errorf("value: parsing %q as int: %w", s, err)
		}
		return Int(i), nil
	case FloatKind:
		f, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return NA(), fmt.Errorf("value: parsing %q as float: %w", s, err)
		}
		return Float(f), nil
	case StringKind:
		return Str(t), nil
	case BoolKind:
		switch strings.ToLower(t) {
		case "true", "yes", "y", "1":
			return Bool(true), nil
		case "false", "no", "n", "0":
			return Bool(false), nil
		}
		return NA(), fmt.Errorf("value: parsing %q as bool", s)
	case TimeKind:
		if tm, err := time.Parse(time.RFC3339, t); err == nil {
			return Time(tm), nil
		}
		if tm, err := time.Parse("2006-01-02", t); err == nil {
			return Time(tm), nil
		}
		return NA(), fmt.Errorf("value: parsing %q as time", s)
	}
	return NA(), fmt.Errorf("value: unknown kind %v", k)
}
