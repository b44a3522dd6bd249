package exec

import (
	"context"
	"sort"

	"github.com/ddgms/ddgms/internal/value"
)

// The scalar reference oracle. It ran in production behind an option
// until the kernel's three coded paths had been proven against it; the
// equivalence, cancellation and fuzz batteries keep comparing against
// it from here.

// oracleGroupBy answers in with the scalar reference, sorted like
// GroupBy's result.
func oracleGroupBy(in GroupInput) ([]Group, error) {
	groups, err := groupScalar(in, newScanCtl(context.Background()))
	if err != nil {
		return nil, err
	}
	sort.Slice(groups, func(a, b int) bool {
		return CompareTuples(groups[a].Tuple, groups[b].Tuple) < 0
	})
	return groups, nil
}

// groupScalar is the pre-vectorization algorithm kept as the reference
// oracle: materialise the key tuple of every row, encode it to a string
// and accumulate in one map on the calling goroutine. It shares the
// vectorized paths' cancellation cadence and budget.
func groupScalar(in GroupInput, c *scanCtl) ([]Group, error) {
	type entry struct {
		tuple  []value.Value
		states []*AggState
	}
	groups := make(map[string]*entry)
	keyBuf := make([]value.Value, len(in.Keys))
	for lo := 0; lo < in.NumRows; {
		hi := lo + cancelCheckRows
		if hi > in.NumRows {
			hi = in.NumRows
		}
		if !c.next(hi - lo) {
			return nil, abortErr(c)
		}
		for i := lo; i < hi; i++ {
			if !Selected(in.Rows, i) {
				continue
			}
			for k, key := range in.Keys {
				keyBuf[k] = key.Value(i)
			}
			gk := EncodeTuple(keyBuf)
			g, ok := groups[gk]
			if !ok {
				if !c.cell() {
					return nil, abortErr(c)
				}
				g = &entry{tuple: append([]value.Value(nil), keyBuf...), states: newStates(in.Aggs)}
				groups[gk] = g
			}
			observeRow(g.states, in.Aggs, i)
		}
		lo = hi
	}
	out := make([]Group, 0, len(groups))
	for _, g := range groups {
		out = append(out, Group{Tuple: g.tuple, States: g.states})
	}
	return out, nil
}
