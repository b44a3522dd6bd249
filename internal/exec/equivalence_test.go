package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/value"
)

// groupSpec is one randomized group-by scenario: raw key/measure values
// plus a filter, from which input builds the coded columns.
type groupSpec struct {
	rows     int
	keys     [][]value.Value
	measure  []value.Value // float measure with NA holes, sometimes NaN
	distinct []value.Value // low-cardinality distinct measure
	filter   func(i int) bool
}

// randomSpec draws a scenario aimed at one of the kernel's key paths:
// dense (packed key fits maxDenseBits), hashed (fits a word) or wide
// (beyond 64 bits). Sorted variants produce long runs of equal keys.
func randomSpec(rng *rand.Rand, path string, sorted bool) groupSpec {
	rows := 200 + rng.Intn(2200)
	var cards []int
	switch path {
	case "dense":
		cards = []int{2 + rng.Intn(6), 2 + rng.Intn(10)}
	case "hashed":
		cards = []int{40 + rng.Intn(400), 2 + rng.Intn(8)}
	default: // wide: five ~16-bit keys exceed the 64-bit packed budget
		cards = []int{1 << 14, 1 << 14, 1 << 14, 1 << 14, 1 << 14}
	}
	sp := groupSpec{rows: rows}
	for _, card := range cards {
		col := make([]value.Value, rows)
		for i := range col {
			v := rng.Intn(card)
			if sorted {
				v = i * card / rows
			}
			if rng.Intn(23) == 0 {
				col[i] = value.NA()
			} else {
				col[i] = value.Str(fmt.Sprintf("k%d", v))
			}
		}
		sp.keys = append(sp.keys, col)
	}
	sp.measure = make([]value.Value, rows)
	sp.distinct = make([]value.Value, rows)
	for i := 0; i < rows; i++ {
		switch rng.Intn(11) {
		case 0:
			sp.measure[i] = value.NA()
		case 1:
			sp.measure[i] = value.Float(math.NaN())
		default:
			sp.measure[i] = value.Float(float64(rng.Intn(97)) / 7)
		}
		if rng.Intn(19) == 0 {
			sp.distinct[i] = value.NA()
		} else {
			sp.distinct[i] = value.Int(int64(rng.Intn(25)))
		}
	}
	if rng.Intn(2) == 0 {
		mod := 2 + rng.Intn(5)
		sp.filter = func(i int) bool { return i%mod != 0 }
	}
	return sp
}

// input builds the GroupInput. The distinct measure is passed as a
// CodedColumn so the dense path's bitset accumulation is
// in play whenever the plan admits it.
func (sp groupSpec) input() GroupInput {
	in := GroupInput{NumRows: sp.rows, Filter: sp.filter}
	for _, col := range sp.keys {
		in.Keys = append(in.Keys, Encode(col))
	}
	in.Aggs = []AggInput{
		{Kind: CountAgg},
		{Kind: SumAgg, Measure: ValueSlice(sp.measure)},
		{Kind: AvgAgg, Measure: ValueSlice(sp.measure)},
		{Kind: MinAgg, Measure: ValueSlice(sp.measure)},
		{Kind: MaxAgg, Measure: ValueSlice(sp.measure)},
		{Kind: DistinctAgg, Measure: ValueSlice(sp.measure)},
		{Kind: DistinctAgg, Measure: Encode(sp.distinct)},
	}
	return in
}

// sameGroupsNaN is sameGroups with NaN-tolerant result comparison: the
// random measures include NaN, which propagates into sums on both sides
// but never compares equal to itself.
func sameGroupsNaN(t *testing.T, got, want []Group) {
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
			if gr.Equal(wr) {
				continue
			}
			gf, gok := gr.AsFloat()
			wf, wok := wr.AsFloat()
			if gok && wok && math.IsNaN(gf) && math.IsNaN(wf) {
				continue
			}
			t.Fatalf("group %d agg %d: %v, want %v", g, k, gr, wr)
		}
	}
}

// TestEncodingEquivalenceRandomSpecs is the coded-column oracle battery:
// for randomized scenarios spanning the dense, hashed and wide key paths,
// the vectorized kernel at 1 and 4 workers must produce exactly the
// groups of the legacy scalar path.
func TestEncodingEquivalenceRandomSpecs(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		path := []string{"dense", "hashed", "wide"}[seed%3]
		sorted := seed%2 == 0
		t.Run(fmt.Sprintf("seed%d_%s_sorted%v", seed, path, sorted), func(t *testing.T) {
			sp := randomSpec(rand.New(rand.NewSource(int64(seed))), path, sorted)
			in := sp.input()
			legacy, err := oracleGroupBy(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := groupBy(context.Background(), in, workers)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				sameGroupsNaN(t, got, legacy)
			}
		})
	}
}
