package exec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/value"
)

// Encode dictionary-encodes a materialised value slice.
func Encode(vals []value.Value) *CodedColumn {
	return EncodeFunc(len(vals), func(i int) value.Value { return vals[i] })
}

// selectWhere is the row selection of the rows [0, n) for which keep
// is true, built bit by bit.
func selectWhere(n int, keep func(i int) bool) []uint64 {
	rows := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if keep(i) {
			rows[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return rows
}

// ValueSlice adapts a materialised value slice to the Measure accessor.
type ValueSlice []value.Value

// Value returns element i.
func (s ValueSlice) Value(i int) value.Value { return s[i] }

func TestEncodeRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Str("a"), value.NA(), value.Str("b"), value.Str("a"),
		value.NA(), value.Str("c"),
	}
	cc := Encode(vals)
	if cc.Len() != len(vals) {
		t.Fatalf("len %d, want %d", cc.Len(), len(vals))
	}
	if cc.Card() != 4 { // NA + a, b, c
		t.Fatalf("card %d, want 4", cc.Card())
	}
	if !cc.Values()[NACode].IsNA() {
		t.Fatalf("Values[0] = %v, want NA", cc.Values()[0])
	}
	for i, v := range vals {
		if !cc.Value(i).Equal(v) {
			t.Errorf("row %d: decoded %v, want %v", i, cc.Value(i), v)
		}
		if na := cc.Codes()[i] == NACode; na != v.IsNA() {
			t.Errorf("row %d: coded NA %v, want %v", i, na, v.IsNA())
		}
	}
	// Repeated values share codes.
	if codes := cc.Codes(); codes[0] != codes[3] {
		t.Errorf("codes for repeated value differ: %d vs %d", codes[0], codes[3])
	}
}

func TestEncodeNaNFoldsToOneCode(t *testing.T) {
	nan := value.Float(math.NaN())
	cc := Encode([]value.Value{nan, value.Float(1), nan, nan})
	codes := cc.Codes()
	if codes[0] != codes[2] || codes[0] != codes[3] {
		t.Fatalf("NaN rows got distinct codes: %v", codes)
	}
	if codes[0] == NACode {
		t.Fatal("NaN mapped to the NA code")
	}
}

func TestEncodeTupleMatchesLegacyFormat(t *testing.T) {
	// The consolidated encoding must keep the historical "%d:%s\x00" form
	// so persisted or cached keys remain comparable across layers.
	got := EncodeTuple([]value.Value{value.Int(7), value.Str("x")})
	want := "1:7\x003:x\x00"
	if got != want {
		t.Fatalf("EncodeTuple = %q, want %q", got, want)
	}
	if EncodeTuple(nil) != "" {
		t.Fatalf("empty tuple should encode empty")
	}
}

// buildInput makes a deterministic mixed-kind input: two categorical keys
// and a float measure with NA holes.
func buildInput(rows int) GroupInput {
	as := make([]value.Value, rows)
	bs := make([]value.Value, rows)
	ms := make([]value.Value, rows)
	for i := 0; i < rows; i++ {
		as[i] = value.Str([]string{"a0", "a1", "a2"}[i%3])
		if i%7 == 0 {
			as[i] = value.NA()
		}
		bs[i] = value.Int(int64(i % 4))
		ms[i] = value.Float(float64(i % 11))
		if i%5 == 0 {
			ms[i] = value.NA()
		}
	}
	return GroupInput{
		NumRows: rows,
		Keys:    []*CodedColumn{Encode(as), Encode(bs)},
		Aggs: []AggInput{
			{Kind: CountAgg},
			{Kind: SumAgg, Measure: ValueSlice(ms)},
			{Kind: AvgAgg, Measure: ValueSlice(ms)},
			{Kind: MinAgg, Measure: ValueSlice(ms)},
			{Kind: MaxAgg, Measure: ValueSlice(ms)},
			{Kind: DistinctAgg, Measure: ValueSlice(ms)},
		},
	}
}

func sameGroups(t *testing.T, got, want []Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("group count %d, want %d", len(got), len(want))
	}
	for g := range want {
		if CompareTuples(got[g].Tuple, want[g].Tuple) != 0 {
			t.Fatalf("group %d tuple %v, want %v", g, got[g].Tuple, want[g].Tuple)
		}
		for k := range want[g].States {
			gr, wr := got[g].States[k].Result(), want[g].States[k].Result()
			if !gr.Equal(wr) {
				t.Fatalf("group %d agg %d: %v, want %v", g, k, gr, wr)
			}
		}
	}
}

func TestVectorizedMatchesScalar(t *testing.T) {
	in := buildInput(1000)
	legacy, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		coded, err := groupBy(context.Background(), in, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameGroups(t, coded, legacy)
	}
}

func TestFilterRestrictsRows(t *testing.T) {
	in := buildInput(1000)
	in.Rows = selectWhere(1000, func(i int) bool { return i%2 == 0 })
	legacy, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := groupBy(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, coded, legacy)
	var total int64
	for _, g := range coded {
		total += g.States[0].Count
	}
	if total != 500 {
		t.Fatalf("filtered row count %d, want 500", total)
	}
}

func TestZeroKeysSingleGroup(t *testing.T) {
	in := buildInput(100)
	in.Keys = nil
	groups, err := GroupBy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	if groups[0].States[0].Count != 100 {
		t.Fatalf("count %d, want 100", groups[0].States[0].Count)
	}
}

func TestZeroRowsNoGroups(t *testing.T) {
	groups, err := GroupBy(context.Background(), GroupInput{NumRows: 0, Keys: []*CodedColumn{Encode(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("got %d groups, want 0", len(groups))
	}
}

func TestZeroAggsActsAsDistinct(t *testing.T) {
	in := buildInput(200)
	in.Aggs = nil
	legacy, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := groupBy(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, coded, legacy)
	if len(coded) == 0 {
		t.Fatal("expected distinct groups")
	}
}

func TestShortKeyColumnRejected(t *testing.T) {
	_, err := GroupBy(context.Background(), GroupInput{NumRows: 10, Keys: []*CodedColumn{Encode(make([]value.Value, 5))}})
	if err == nil {
		t.Fatal("expected error for short key column")
	}
	in := buildInput(200)
	in.Rows = make([]uint64, 3) // 192 rows
	if _, err := GroupBy(context.Background(), in); err == nil {
		t.Fatal("expected error for a row selection shorter than the input")
	}
}

// highCardColumn builds a column with the requested cardinality so tests
// can force the hashed and wide key paths.
func highCardColumn(rows, card int, rng *rand.Rand) *CodedColumn {
	vals := make([]value.Value, rows)
	for i := range vals {
		vals[i] = value.Int(int64(rng.Intn(card)))
	}
	return Encode(vals)
}

func TestHashedPathMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := 5000
	// Three ~2^9 columns: 27 packed bits — beyond the dense budget,
	// within uint64.
	in := GroupInput{
		NumRows: rows,
		Keys: []*CodedColumn{
			highCardColumn(rows, 500, rng),
			highCardColumn(rows, 400, rng),
			highCardColumn(rows, 300, rng),
		},
		Aggs: []AggInput{{Kind: CountAgg}},
	}
	if l := layoutFor(in.Keys); !l.packable || l.total <= maxDenseBits {
		t.Fatalf("layout %v does not exercise the hashed path", l)
	}
	legacy, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := groupBy(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, coded, legacy)
}

func TestWidePathMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := 3000
	keys := make([]*CodedColumn, 6)
	for k := range keys {
		keys[k] = highCardColumn(rows, 20000, rng) // ~12 bits realised each, >64 total
	}
	in := GroupInput{NumRows: rows, Keys: keys, Aggs: []AggInput{{Kind: CountAgg}}}
	if l := layoutFor(keys); l.packable {
		t.Fatalf("layout %v does not exercise the wide path", l)
	}
	legacy, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := groupBy(context.Background(), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, coded, legacy)
}

func TestMergeSemantics(t *testing.T) {
	a := NewAggState(AvgAgg)
	b := NewAggState(AvgAgg)
	a.Observe(value.Float(2))
	a.Observe(value.Float(4))
	b.Observe(value.Float(6))
	a.Merge(b)
	if r := a.Result(); !r.Equal(value.Float(4)) {
		t.Fatalf("merged avg = %v, want 4", r)
	}

	d1, d2 := NewAggState(DistinctAgg), NewAggState(DistinctAgg)
	d1.Observe(value.Str("x"))
	d1.Observe(value.Str("y"))
	d2.Observe(value.Str("y"))
	d2.Observe(value.Str("z"))
	d1.Merge(d2)
	if r := d1.Result(); !r.Equal(value.Int(3)) {
		t.Fatalf("merged distinct = %v, want 3", r)
	}

	m1, m2 := NewAggState(MinAgg), NewAggState(MinAgg)
	m2.Observe(value.Float(-3))
	m1.Merge(m2)
	if r := m1.Result(); !r.Equal(value.Float(-3)) {
		t.Fatalf("merged min = %v, want -3 (empty-into merge)", r)
	}
}

func TestAggKindRoundTrip(t *testing.T) {
	for _, k := range []AggKind{CountAgg, SumAgg, AvgAgg, MinAgg, MaxAgg, DistinctAgg} {
		parsed, err := ParseAggKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != k {
			t.Fatalf("round trip %v -> %v", k, parsed)
		}
	}
	if _, err := ParseAggKind("median"); err == nil {
		t.Fatal("expected error for unknown aggregate")
	}
}
