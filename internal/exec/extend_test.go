package exec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/value"
)

// extendValues maps raw bytes onto a value stream with everything an
// extend must preserve: NA, float NaN (one pinned code however many
// appear), ints and strings — up to 154 distinct values.
func extendValues(data []byte) []value.Value {
	vals := make([]value.Value, len(data))
	for i, b := range data {
		switch {
		case b == 0:
			vals[i] = value.NA()
		case b == 1:
			vals[i] = value.Float(math.NaN())
		case b < 128:
			vals[i] = value.Int(int64(b))
		default:
			vals[i] = value.Str(string(rune('a' + b%26)))
		}
	}
	return vals
}

func sameValue(a, b value.Value) bool {
	return a == b || (isNaN(a) && isNaN(b))
}

// checkSameColumn asserts got reads exactly as a one-shot EncodeFunc of
// vals: length, dictionary, and every row's code and value.
func checkSameColumn(t *testing.T, label string, got *CodedColumn, vals []value.Value) {
	t.Helper()
	want := EncodeFunc(len(vals), func(i int) value.Value { return vals[i] })
	if got.Len() != want.Len() || got.Card() != want.Card() {
		t.Fatalf("%s: Len/Card = %d/%d, want %d/%d", label, got.Len(), got.Card(), want.Len(), want.Card())
	}
	gv, wv := got.Values(), want.Values()
	for code := range wv {
		if !sameValue(gv[code], wv[code]) {
			t.Fatalf("%s: Values()[%d] = %v, want %v", label, code, gv[code], wv[code])
		}
	}
	gc, wc := got.Codes(), want.Codes()
	for i := range vals {
		if gc[i] != wc[i] {
			t.Fatalf("%s: code of row %d = %d, want %d", label, i, gc[i], wc[i])
		}
		if !sameValue(got.Value(i), want.Value(i)) {
			t.Fatalf("%s: Value(%d) = %v, want %v", label, i, got.Value(i), want.Value(i))
		}
	}
}

// checkExtendChain builds vals[:cuts[0]] and extends it by
// each following batch, vals[cuts[i-1]:cuts[i]]. Only after the whole
// chain exists does it check every header against a one-shot build of
// its prefix, so an extend that disturbed an older header shows. It then
// extends an older header a second time, which must leave both branches
// intact.
func checkExtendChain(t *testing.T, vals []value.Value, cuts []int) {
	t.Helper()
	b := newDictBuilder(cuts[0])
	for _, v := range vals[:cuts[0]] {
		b.append(v)
	}
	chain := []*CodedColumn{b.finish()}
	for i := 1; i < len(cuts); i++ {
		prev := chain[len(chain)-1]
		next := ExtendCoded(prev, vals[cuts[i-1]:cuts[i]])
		if cuts[i] == cuts[i-1] && next != prev {
			t.Fatalf("empty extend of %d rows returned a new column", prev.Len())
		}
		// A caller appending to what an older header hands out must not
		// reach the storage the newer header shares with it.
		_ = append(prev.Values(), value.Str("clobbered"))
		_ = append(prev.Codes(), 1<<20)
		chain = append(chain, next)
	}
	for i, c := range chain {
		checkSameColumn(t, "chain header", c, vals[:cuts[i]])
	}
	if len(chain) > 2 && cuts[1] > cuts[0] {
		// chain[0] is no longer the newest header; extending it again
		// must not write where chain[1] lives.
		branch := append(append([]value.Value(nil), vals[:cuts[0]]...), vals[cuts[len(cuts)-1]-1:]...)
		c := ExtendCoded(chain[0], branch[cuts[0]:])
		checkSameColumn(t, "branch", c, branch)
		for i, c := range chain {
			checkSameColumn(t, "chain header after branch", c, vals[:cuts[i]])
		}
	}
}

// randomCuts splits n rows into a built prefix and batches of 0–8 rows.
func randomCuts(rng *rand.Rand, n int) []int {
	cuts := []int{rng.Intn(n + 1)}
	for at := cuts[0]; at < n; {
		at += rng.Intn(9)
		if at > n {
			at = n
		}
		cuts = append(cuts, at)
	}
	return cuts
}

// TestExtendCodedMatchesOneShotBuild: a column built and then extended
// in random batch splits reads exactly as EncodeFunc over the whole
// stream. Subtests are named after the one code layout, flat.
func TestExtendCodedMatchesOneShotBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runs := make([]byte, 0, 300)
	for len(runs) < 300 {
		runs = append(runs, bytes.Repeat([]byte{byte(2 + rng.Intn(6))}, 1+rng.Intn(40))...)
	}
	churn := make([]byte, 300)
	for i := range churn {
		churn[i] = byte(rng.Intn(256))
	}
	missing := bytes.Repeat([]byte{0, 1, 7, 1, 0, 0, 130}, 43)[:300]
	growing := make([]byte, 300) // a new member every row
	for i := range growing {
		growing[i] = byte(2 + i%254)
	}
	streams := []struct {
		name string
		data []byte
	}{{"runs", runs}, {"churn", churn}, {"na_nan", missing}, {"new_members", growing}}
	for _, stream := range streams {
		vals := extendValues(stream.data)
		for trial := 0; trial < 3; trial++ {
			checkExtendChain(t, vals, randomCuts(rng, len(vals)))
		}
		// Single-row batches, the refresh path's common case.
		cuts := []int{len(vals) - 64}
		for at := cuts[0] + 1; at <= len(vals); at++ {
			cuts = append(cuts, at)
		}
		t.Run("flat/"+stream.name, func(t *testing.T) { checkExtendChain(t, vals, cuts) })
	}
}

// FuzzExtendCoded: for any value stream and batch split, an extended
// column equals the one-shot build and no older header moves. data[0]
// seeds the split; the rest is the stream.
func FuzzExtendCoded(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 2, 5, 5, 5, 0, 1, 1, 200, 5})
	f.Add(append([]byte{2, 3}, bytes.Repeat([]byte{9, 9, 9, 9, 1, 0}, 30)...))
	f.Add(append([]byte{3, 4}, bytes.Repeat([]byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, 8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		vals := extendValues(data[1:])
		checkExtendChain(t, vals, randomCuts(rand.New(rand.NewSource(int64(data[0]))), len(vals)))
	})
}
