package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ddgms/ddgms/internal/value"
)

// groupSpec is one randomized group-by scenario: raw key/measure values
// plus a row selection, from which input builds the coded columns.
type groupSpec struct {
	rows     int
	keys     [][]value.Value
	measure  []value.Value // float measure with NA holes, sometimes NaN
	distinct []value.Value // low-cardinality distinct measure
	sel      []uint64      // nil selects every row
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
		sp.sel = selectWhere(rows, func(i int) bool { return i%mod != 0 })
	}
	return sp
}

// input builds the GroupInput. The distinct measure is passed as a
// CodedColumn so the dense path's bitset accumulation is
// in play whenever the plan admits it.
func (sp groupSpec) input() GroupInput {
	in := GroupInput{NumRows: sp.rows, Rows: sp.sel}
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

// TestRowSelectionsMatchOracle runs each kernel path under the edge
// selections — none, all (bits past the input set too), a sparse one,
// and one that keeps only the rows of a partial last word — and requires
// the scalar reference's groups at 1 and 4 workers.
func TestRowSelectionsMatchOracle(t *testing.T) {
	for seed, path := range []string{"dense", "hashed", "wide"} {
		sp := randomSpec(rand.New(rand.NewSource(int64(100+seed))), path, false)
		sp.rows = sp.rows/64*64 - 27 // the last word covers 37 rows
		for k := range sp.keys {
			sp.keys[k] = sp.keys[k][:sp.rows]
		}
		sp.measure, sp.distinct = sp.measure[:sp.rows], sp.distinct[:sp.rows]
		words := (sp.rows + 63) / 64
		full := make([]uint64, words)
		for w := range full {
			full[w] = ^uint64(0)
		}
		selections := map[string][]uint64{
			"empty":    make([]uint64, words),
			"full":     full,
			"sparse":   selectWhere(sp.rows, func(i int) bool { return i%61 == 3 }),
			"lastword": selectWhere(sp.rows, func(i int) bool { return i >= (words-1)*64 }),
		}
		for name, sel := range selections {
			t.Run(path+"_"+name, func(t *testing.T) {
				sp.sel = sel
				in := sp.input()
				want, err := oracleGroupBy(in)
				if err != nil {
					t.Fatal(err)
				}
				if name == "empty" && len(want) != 0 {
					t.Fatalf("empty selection: oracle found %d groups", len(want))
				}
				for _, workers := range []int{1, 4} {
					got, err := groupBy(context.Background(), in, workers)
					if err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					sameGroupsNaN(t, got, want)
				}
			})
		}
	}
}

// TestSelectRowsMatchesPerRow compiles random conjunctions of code sets
// and compares every bit, padding included, with the conjunction
// evaluated row by row.
func TestSelectRowsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(300)
		sets := make([]CodeSet, rng.Intn(4))
		for k := range sets {
			vals := make([]value.Value, n)
			for i := range vals {
				if v := rng.Intn(6); v > 0 {
					vals[i] = value.Int(int64(v))
				}
			}
			cc := Encode(vals)
			allowed := make([]bool, cc.Card())
			for code := range allowed {
				allowed[code] = rng.Intn(3) > 0
			}
			sets[k] = CodeSet{Codes: cc.Codes(), Allowed: allowed}
		}
		got := SelectRows(n, sets)
		if len(sets) == 0 {
			if got != nil {
				t.Fatalf("trial %d: no conjuncts selected %v, want nil (every row)", trial, got)
			}
			continue
		}
		if len(got) != (n+63)/64 {
			t.Fatalf("trial %d: %d words for %d rows", trial, len(got), n)
		}
		for i := 0; i < len(got)*64; i++ {
			want := i < n
			for _, s := range sets {
				want = want && s.Allowed[s.Codes[i]]
			}
			if bit := got[i>>6]&(1<<(uint(i)&63)) != 0; bit != want {
				t.Fatalf("trial %d row %d: selected %v, want %v", trial, i, bit, want)
			}
		}
	}
}

// TestDropRowsMatchesPerRow drops random tombstone sets from random
// selections, nil ones included, and compares every bit, padding
// included, with the selection evaluated row by row.
func TestDropRowsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(300)
		words := (n + 63) / 64
		var rows, drop []uint64
		if rng.Intn(3) > 0 {
			rows = selectWhere(n, func(int) bool { return rng.Intn(2) == 0 })
		}
		if rng.Intn(4) > 0 {
			drop = selectWhere(n, func(int) bool { return rng.Intn(4) == 0 })
		}
		want := make([]bool, words*64)
		for i := 0; i < n; i++ {
			want[i] = Selected(rows, i) && (drop == nil || !Selected(drop, i))
		}
		got := DropRows(slices.Clone(rows), n, drop)
		if rows == nil && drop == nil {
			if got != nil {
				t.Fatalf("trial %d: nil selection with nothing to drop became %v", trial, got)
			}
			continue
		}
		if len(got) != words {
			t.Fatalf("trial %d: %d words for %d rows", trial, len(got), n)
		}
		for i, w := range want {
			if bit := got[i>>6]&(1<<(uint(i)&63)) != 0; bit != w {
				t.Fatalf("trial %d row %d: selected %v, want %v", trial, i, bit, w)
			}
		}
	}
}
