package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

// Fig4Query is the drag-and-drop query of the paper's Fig 4: family
// history of diabetes by age group and by gender (distinct patients with
// a positive family history).
func Fig4Query() cube.Query {
	return cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBandTbl},
		Cols:    []cube.AttrRef{core.RefGender},
		Slicers: []cube.Slicer{{Ref: core.RefFamHist, Values: []value.Value{value.Str("Yes")}}},
		Measure: core.PatientCountMeasure(),
	}
}

// Fig4 executes and renders the Fig 4 crosstab.
func Fig4(w io.Writer, p *core.Platform) (*cube.CellSet, error) {
	cs, err := p.QueryCtx(context.TODO(), Fig4Query())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "FIG 4 — family history of diabetes by age group and gender (distinct patients)")
	if err := viz.CrossTab(w, "", cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Fig5Query is the paper's Fig 5 at coarse granularity: age × gender
// distribution of patients with diabetes.
func Fig5Query() cube.Query {
	return cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBand10},
		Cols:    []cube.AttrRef{core.RefGender},
		Slicers: []cube.Slicer{{Ref: core.RefDiabetes, Values: []value.Value{value.Str("Yes")}}},
		Measure: core.PatientCountMeasure(),
	}
}

// Fig5Result carries both granularities of the Fig 5 drill-down.
type Fig5Result struct {
	Coarse *cube.CellSet // 10-year bands
	Fine   *cube.CellSet // 5-year bands
}

// Fig5 executes the Fig 5 query at 10-year granularity, drills down to
// 5-year bands, renders both, and returns the cell sets for shape checks.
func Fig5(w io.Writer, p *core.Platform) (*Fig5Result, error) {
	q := Fig5Query()
	coarse, err := p.QueryCtx(context.TODO(), q)
	if err != nil {
		return nil, err
	}
	fine, err := p.Engine().DrillDown(q, core.RefAgeBand10)
	if err != nil {
		return nil, err
	}
	fineCS, err := p.QueryCtx(context.TODO(), fine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "FIG 5 — age and gender distribution of patients with diabetes")
	if err := viz.GroupedBarChart(w, "10-year age bands:", coarse); err != nil {
		return nil, err
	}
	if err := viz.GroupedBarChart(w, "drill-down to 5-year age bands:", fineCS); err != nil {
		return nil, err
	}
	return &Fig5Result{Coarse: coarse, Fine: fineCS}, nil
}

// CheckFig5Shape verifies the qualitative findings the paper reads off
// Fig 5: males dominate the 70-75 diabetic subgroup, females dominate
// 75-80, and the proportion of diabetic women falls substantially in the
// bands past 78.
func CheckFig5Shape(r *Fig5Result) error {
	m7075 := cellValue(r.Fine, "70-75", "M")
	f7075 := cellValue(r.Fine, "70-75", "F")
	m7580 := cellValue(r.Fine, "75-80", "M")
	f7580 := cellValue(r.Fine, "75-80", "F")
	if m7075 <= f7075 {
		return fmt.Errorf("fig5: males (%g) do not dominate females (%g) in 70-75", m7075, f7075)
	}
	if f7580 <= m7580 {
		return fmt.Errorf("fig5: females (%g) do not dominate males (%g) in 75-80", f7580, m7580)
	}
	f8085 := cellValue(r.Fine, "80-85", "F")
	if f8085 >= f7580 {
		return fmt.Errorf("fig5: female diabetics do not drop past 78 (75-80=%g, 80-85=%g)", f7580, f8085)
	}
	return nil
}

// Fig6Query is the paper's Fig 6: distribution of years since
// hypertension diagnosis by age group, for hypertensive participants.
func Fig6Query() cube.Query {
	return cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBand10},
		Cols:    []cube.AttrRef{core.RefHTYears},
		Slicers: []cube.Slicer{{Ref: core.RefHTStatus, Values: []value.Value{value.Str("Yes")}}},
		Measure: core.PatientCountMeasure(),
	}
}

// Fig6Result carries both granularities of the Fig 6 drill-down.
type Fig6Result struct {
	Coarse *cube.CellSet
	Fine   *cube.CellSet
}

// Fig6 executes the Fig 6 query, drills the age axis down to 5-year
// bands, renders both, and returns the cell sets for shape checks.
func Fig6(w io.Writer, p *core.Platform) (*Fig6Result, error) {
	q := Fig6Query()
	coarse, err := p.QueryCtx(context.TODO(), q)
	if err != nil {
		return nil, err
	}
	fine, err := p.Engine().DrillDown(q, core.RefAgeBand10)
	if err != nil {
		return nil, err
	}
	fineCS, err := p.QueryCtx(context.TODO(), fine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "FIG 6 — years since hypertension diagnosis by age group (distinct patients)")
	if err := viz.CrossTab(w, "10-year age bands:", coarse); err != nil {
		return nil, err
	}
	if err := viz.CrossTab(w, "drill-down to 5-year age bands:", fineCS); err != nil {
		return nil, err
	}
	return &Fig6Result{Coarse: coarse, Fine: fineCS}, nil
}

// CheckFig6Shape verifies the paper's Fig 6 finding: the drill-down
// exposes a significant drop in 5-10-year hypertension cases in the 70-75
// and 75-80 subgroups, relative to the neighbouring duration buckets
// (compared per year of bucket width).
func CheckFig6Shape(r *Fig6Result) error {
	for _, band := range []string{"70-75", "75-80"} {
		dip := cellValue(r.Fine, band, "5-10") / 5
		under := cellValue(r.Fine, band, "2-5") / 3
		over := cellValue(r.Fine, band, "10-20") / 10
		if dip >= under || dip >= over {
			return fmt.Errorf("fig6: no 5-10y dip in %s (densities 2-5y=%.2f, 5-10y=%.2f, 10-20y=%.2f)",
				band, under, dip, over)
		}
	}
	return nil
}

// cellValue finds a cell by labels, returning 0 when absent.
func cellValue(cs *cube.CellSet, rowLabel, colLabel string) float64 {
	for i := 0; i < cs.Rows(); i++ {
		if cs.RowLabel(i) != rowLabel {
			continue
		}
		for j := 0; j < cs.Columns(); j++ {
			if cs.ColLabel(j) == colLabel {
				return cs.CellFloat(i, j)
			}
		}
	}
	return 0
}
