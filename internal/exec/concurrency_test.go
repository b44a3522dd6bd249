package exec

import (
	"context"
	"sync"
	"testing"
)

// The worker-pool kernel must be race-clean: its per-worker partials are
// private until the merge, and its inputs (coded columns, measures,
// filter) are read-only. Hammer one shared input from many concurrent
// GroupBy calls, each fanning out its own pool, under -race.
func TestConcurrentGroupBy(t *testing.T) {
	in := buildInput(20000)
	in.Rows = selectWhere(20000, func(i int) bool { return i%3 != 0 })
	want, err := oracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				got, err := groupBy(context.Background(), in, 1+(c+iter)%4)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("concurrent run: %d groups, want %d", len(got), len(want))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// Worker count must never change results: the merge is exact for every
// aggregate, including the non-additive ones (avg, min, max, distinct).
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	in := buildInput(50000)
	var base []Group
	for _, workers := range []int{1, 2, 5, 16} {
		got, err := groupBy(context.Background(), in, workers)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(got), len(base))
		}
		for g := range base {
			if CompareTuples(got[g].Tuple, base[g].Tuple) != 0 {
				t.Fatalf("workers=%d group %d: tuple %v, want %v", workers, g, got[g].Tuple, base[g].Tuple)
			}
			for k := range base[g].States {
				a, b := got[g].States[k].Result(), base[g].States[k].Result()
				if !a.Equal(b) {
					t.Fatalf("workers=%d group %d agg %d: %v, want %v", workers, g, k, a, b)
				}
			}
		}
	}
	// Sanity: the shared fixture actually has NA-keyed groups, so the
	// determinism claim covers missing-value coordinates too.
	hasNA := false
	for _, g := range base {
		for _, v := range g.Tuple {
			if v.IsNA() {
				hasNA = true
			}
		}
	}
	if !hasNA {
		t.Fatal("fixture lost its NA key coverage")
	}
}
