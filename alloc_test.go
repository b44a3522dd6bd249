package ddgms_test

import (
	"testing"

	"github.com/ddgms/ddgms/internal/exec"
)

// TestGroupByCodedAllocBudget is the allocation-regression gate for the
// arena-based dense kernel: the reference grouping (BenchmarkGroupByCoded)
// ran at 424 allocs/op on the pre-arena kernel, and the compressed-
// execution rework brought it under a quarter of that. The budget holds
// slack over the measured ~91 so unrelated churn doesn't trip it, while
// still catching any return to per-group heap allocation.
func TestGroupByCodedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under the race detector")
	}
	if testing.Short() {
		t.Skip("platform fixture is expensive")
	}
	flat := platformFor(t, 900).Flat()
	keys, aggs := kernelGroupBySpec()
	if _, err := flat.GroupBy(keys, aggs); err != nil { // warm the dictionaries
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := flat.GroupBy(keys, aggs); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 150
	if avg > budget {
		t.Errorf("GroupByCoded allocates %.0f allocs/op, budget %d (legacy scalar baseline: 424)", avg, budget)
	}
}

// TestEncodedColumnBytesReduction pins the storage win the encodings
// exist for: on the DiScRi fact table's grouping columns, the heuristic
// (packed or RLE) code vectors must be at least 3x smaller than the flat
// 4-bytes-per-row form.
func TestEncodedColumnBytesReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("platform fixture is expensive")
	}
	flat := platformFor(t, 900).Flat()
	flatBytes, codedBytes := 0, 0
	for _, name := range []string{"AgeBand10", "Gender", "DiabetesStatus"} {
		col := flat.MustColumn(name)
		cc := exec.EncodeFunc(col.Len(), col.Value)
		if cc.Encoding() == exec.EncFlat {
			t.Errorf("column %q chose flat encoding (card %d over %d rows)", name, cc.Card(), cc.Len())
		}
		flatBytes += 4 * cc.Len()
		codedBytes += cc.CodeBytes()
		t.Logf("%s: %v, %d rows, card %d, %d bytes (flat %d)",
			name, cc.Encoding(), cc.Len(), cc.Card(), cc.CodeBytes(), 4*cc.Len())
	}
	if codedBytes*3 > flatBytes {
		t.Errorf("coded columns take %d bytes vs %d flat; want at least 3x reduction", codedBytes, flatBytes)
	}
}
