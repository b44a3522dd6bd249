package exec_test

// The kernel against the scalar oracle on realistic clinical data: the
// DiScRi flat attendance table (mixed kinds, NA coordinates,
// non-additive aggregates) under the groupings the paper's figures and
// Table I are built from. The two share no grouping code beyond the
// aggregate state type, so agreement checks the kernel's key packing,
// partitioning and merge logic where the synthetic batteries in this
// package cannot: on the columns production serves.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/exec"
	"github.com/ddgms/ddgms/internal/experiments"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

var discriFlat *storage.Table

func flatTable(t *testing.T) *storage.Table {
	t.Helper()
	if discriFlat == nil {
		p, err := core.NewDiScRiPlatform(core.Config{}, discri.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		discriFlat = p.Flat()
	}
	return discriFlat
}

// groupInput lowers a group-by over named flat-table columns the way
// storage.Table.GroupBy does: keys and distinct measures read the
// cached dictionaries, other measures the column itself.
func groupInput(t *testing.T, tbl *storage.Table, keys []string, aggs []storage.AggSpec) exec.GroupInput {
	t.Helper()
	dict := func(name string) *exec.CodedColumn {
		cc, err := tbl.Dict(name)
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	in := exec.GroupInput{NumRows: tbl.Len()}
	for _, k := range keys {
		in.Keys = append(in.Keys, dict(k))
	}
	for _, a := range aggs {
		ai := exec.AggInput{Kind: a.Kind}
		switch {
		case a.Column == "":
		case a.Kind == storage.DistinctAgg:
			ai.Measure = dict(a.Column)
		default:
			col, err := tbl.Column(a.Column)
			if err != nil {
				t.Fatal(err)
			}
			ai.Measure = col
		}
		in.Aggs = append(in.Aggs, ai)
	}
	return in
}

// kernelMatchesOracle runs in through the oracle, the kernel at its
// default fan-out and the kernel at each listed worker count.
func kernelMatchesOracle(t *testing.T, in exec.GroupInput, workers ...int) {
	t.Helper()
	want, err := exec.OracleGroupBy(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.GroupBy(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	exec.SameGroups(t, got, want)
	for _, w := range workers {
		got, err := exec.GroupByWorkers(context.Background(), in, w)
		if err != nil {
			t.Fatal(err)
		}
		exec.SameGroups(t, got, want)
	}
}

// TestKernelMatchesOracleOnPaperFigures groups the flat table by each
// figure query's axis attributes — the Fig 4 cross-tab, the Fig 5 and
// Fig 6 coarse queries and their 5-year drill-downs — under the query's
// slicer as the row filter, counting distinct patients as the figures do.
func TestKernelMatchesOracleOnPaperFigures(t *testing.T) {
	flat := flatTable(t)
	drill := func(q cube.Query) cube.Query {
		q.Rows = []cube.AttrRef{core.RefAgeBand5}
		return q
	}
	queries := map[string]cube.Query{
		"fig4":           experiments.Fig4Query(),
		"fig5":           experiments.Fig5Query(),
		"fig5-drilldown": drill(experiments.Fig5Query()),
		"fig6":           experiments.Fig6Query(),
		"fig6-drilldown": drill(experiments.Fig6Query()),
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			var keys []string
			for _, ref := range append(append([]cube.AttrRef{}, q.Rows...), q.Cols...) {
				keys = append(keys, ref.Attr)
			}
			in := groupInput(t, flat, keys, []storage.AggSpec{
				{Kind: q.Measure.Agg, Column: q.Measure.Attr.Attr},
			})
			slicer := q.Slicers[0]
			col, err := flat.Dict(slicer.Ref.Attr)
			if err != nil {
				t.Fatal(err)
			}
			in.Rows = exec.SelectWhere(flat.Len(), func(i int) bool { return col.Value(i).Equal(slicer.Values[0]) })
			kernelMatchesOracle(t, in, 1, 4)
		})
	}
}

// TestKernelMatchesOracleOnTableIGroupings re-runs the Table I
// discretisation groupings — distribution of every banded clinical
// attribute, plus a multivariate grouping with every aggregate kind —
// over the full flat attendance table.
func TestKernelMatchesOracleOnTableIGroupings(t *testing.T) {
	flat := flatTable(t)
	for _, band := range []string{"AgeBandClinical", "AgeBand10", "HTYearsBand", "FBGBand", "DBPBand"} {
		kernelMatchesOracle(t, groupInput(t, flat, []string{band}, []storage.AggSpec{{Kind: storage.CountAgg}}))
	}
	kernelMatchesOracle(t, groupInput(t, flat,
		[]string{"AgeBand10", "Gender", "DiabetesStatus"},
		[]storage.AggSpec{
			{Kind: storage.CountAgg},
			{Kind: storage.SumAgg, Column: "FBG"},
			{Kind: storage.AvgAgg, Column: "FBG"},
			{Kind: storage.MinAgg, Column: "FBG"},
			{Kind: storage.MaxAgg, Column: "FBG"},
			{Kind: storage.DistinctAgg, Column: "PatientID"},
		}), 1, 4)
}

// TestKernelMatchesOracleOnRandomTables throws random group-by specs
// (random key subsets, aggregate kinds and worker counts) at random
// storage tables with NA holes — the column kinds and dictionaries
// storage builds, rather than hand-encoded inputs.
func TestKernelMatchesOracleOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	colNames := []string{"K1", "K2", "K3", "M1", "M2"}
	aggKinds := []storage.AggKind{
		storage.CountAgg, storage.SumAgg, storage.AvgAgg,
		storage.MinAgg, storage.MaxAgg, storage.DistinctAgg,
	}
	for trial := 0; trial < 25; trial++ {
		tbl := storage.MustTable(storage.MustSchema(
			storage.Field{Name: "K1", Kind: value.StringKind},
			storage.Field{Name: "K2", Kind: value.IntKind},
			storage.Field{Name: "K3", Kind: value.BoolKind},
			storage.Field{Name: "M1", Kind: value.FloatKind},
			storage.Field{Name: "M2", Kind: value.IntKind},
		))
		rows := 50 + rng.Intn(500)
		card := 2 + rng.Intn(12)
		for i := 0; i < rows; i++ {
			row := []value.Value{
				value.Str(fmt.Sprintf("s%d", rng.Intn(card))),
				value.Int(int64(rng.Intn(card))),
				value.Bool(rng.Intn(2) == 0),
				value.Float(rng.NormFloat64() * 10),
				value.Int(int64(rng.Intn(100))),
			}
			for j := range row {
				if rng.Intn(10) == 0 {
					row[j] = value.NA()
				}
			}
			if err := tbl.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}

		nkeys := 1 + rng.Intn(3)
		keys := make([]string, 0, nkeys)
		for _, k := range rng.Perm(3)[:nkeys] {
			keys = append(keys, colNames[k])
		}
		naggs := rng.Intn(4)
		aggs := make([]storage.AggSpec, 0, naggs)
		for a := 0; a < naggs; a++ {
			aggs = append(aggs, storage.AggSpec{
				Kind:   aggKinds[rng.Intn(len(aggKinds))],
				Column: colNames[3+rng.Intn(2)],
			})
		}
		kernelMatchesOracle(t, groupInput(t, tbl, keys, aggs), 1+rng.Intn(6))
	}
}
