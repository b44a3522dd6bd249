package value

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueIsNA(t *testing.T) {
	var v Value
	if !v.IsNA() {
		t.Fatal("zero Value must be NA")
	}
	if v.Kind() != NAKind {
		t.Fatalf("zero Value kind = %v, want NAKind", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Int(42).Int(); got != 42 {
		t.Errorf("Int(42).Int() = %d", got)
	}
	if got := Float(3.5).Float(); got != 3.5 {
		t.Errorf("Float(3.5).Float() = %g", got)
	}
	if got := Str("fbg").Str(); got != "fbg" {
		t.Errorf("Str.Str() = %q", got)
	}
	if !Bool(true).Bool() || Bool(false).Bool() {
		t.Error("Bool round-trip failed")
	}
	ts := time.Date(2012, 5, 1, 10, 30, 0, 0, time.UTC)
	if got := Time(ts).Time(); !got.Equal(ts) {
		t.Errorf("Time round-trip = %v, want %v", got, ts)
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Int on string", func() { Str("x").Int() }},
		{"Float on int", func() { Int(1).Float() }},
		{"Str on float", func() { Float(1).Str() }},
		{"Bool on NA", func() { NA().Bool() }},
		{"Time on int", func() { Int(1).Time() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.fn()
		})
	}
}

func TestAsFloat(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Int(7), 7, true},
		{Float(2.25), 2.25, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{Str("7"), 0, false},
		{NA(), 0, false},
		{Time(time.Unix(0, 0)), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if got != c.want || ok != c.ok {
			t.Errorf("%v.AsFloat() = (%g,%v), want (%g,%v)", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NA(), "NA"},
		{Int(-5), "-5"},
		{Float(0.5), "0.5"},
		{Str("hello"), "hello"},
		{Bool(true), "true"},
		{Time(time.Date(2013, 4, 8, 0, 0, 0, 0, time.UTC)), "2013-04-08T00:00:00Z"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", NA()},
		{"NA", NA()},
		{"n/a", NA()},
		{"?", NA()},
		{" 42 ", Int(42)},
		{"6.15", Float(6.15)},
		{"yes", Bool(true)},
		{"No", Bool(false)},
		{"2013-04-08", Time(time.Date(2013, 4, 8, 0, 0, 0, 0, time.UTC))},
		{"hypertension", Str("hypertension")},
	}
	for _, c := range cases {
		if got := Parse(c.in); !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestParseAs(t *testing.T) {
	v, err := ParseAs("6.1", FloatKind)
	if err != nil || v.Float() != 6.1 {
		t.Errorf("ParseAs float = %v, %v", v, err)
	}
	if _, err := ParseAs("abc", IntKind); err == nil {
		t.Error("ParseAs(abc, Int) should error")
	}
	if v, err := ParseAs("", IntKind); err != nil || !v.IsNA() {
		t.Errorf("ParseAs empty should be NA, got %v, %v", v, err)
	}
	if v, err := ParseAs("1", BoolKind); err != nil || !v.Bool() {
		t.Errorf("ParseAs(1, Bool) = %v, %v", v, err)
	}
	if _, err := ParseAs("maybe", BoolKind); err == nil {
		t.Error("ParseAs(maybe, Bool) should error")
	}
	if _, err := ParseAs("notadate", TimeKind); err == nil {
		t.Error("ParseAs(notadate, Time) should error")
	}
}

func TestCompareOrdering(t *testing.T) {
	// NA sorts first, then by kind, then natural order.
	ordered := []Value{
		NA(),
		Int(-1), Int(0), Int(5),
		Float(-2.5), Float(0.1),
		Str("a"), Str("b"),
		Bool(false), Bool(true),
		Time(time.Unix(0, 0)), Time(time.Unix(100, 0)),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Same-kind entries at different positions must strictly order;
			// cross-kind entries order by kind which matches slice layout.
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueUsableAsMapKey(t *testing.T) {
	m := map[Value]int{
		Int(1):     1,
		Float(1):   2,
		Str("1"):   3,
		Bool(true): 4,
		NA():       5,
	}
	if len(m) != 5 {
		t.Fatalf("map collapsed distinct values: %d entries", len(m))
	}
	if m[Int(1)] != 1 || m[Float(1)] != 2 {
		t.Error("Int(1) and Float(1) must be distinct keys")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		NAKind: "na", IntKind: "int", FloatKind: "float",
		StringKind: "string", BoolKind: "bool", TimeKind: "time",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind formatting = %q", Kind(99).String())
	}
}

// Property: Compare is antisymmetric and Equal is consistent with Compare==0
// for int values.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va) &&
			(va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips for integers and floats.
func TestQuickStringParseRoundTrip(t *testing.T) {
	fi := func(a int64) bool {
		return Parse(Int(a).String()).Equal(Int(a))
	}
	if err := quick.Check(fi, nil); err != nil {
		t.Errorf("int round-trip: %v", err)
	}
	ff := func(a float64) bool {
		v := Float(a)
		got := Parse(v.String())
		// Whole-number floats deliberately re-parse as ints; both represent
		// the same number.
		gf, ok := got.AsFloat()
		return ok && gf == a
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(ff, cfg); err != nil {
		t.Errorf("float round-trip: %v", err)
	}
}
