// Package optimize implements the Decision Optimisation feature of the
// DD-DGMS architecture. The paper defines it as "partially the validation
// of the outcomes obtained from prediction and reporting features": since
// the warehouse dimensions are independent, an optimal aggregate should be
// consistent when dimensions are added or removed. ValidateStability
// performs exactly that dimension-ablation check. For the strategic-user
// scenario — "optimising treatment regimen that have the best individual
// outcomes ... within the economic constraints of the current health care
// system" — OptimizeRegimen solves the budgeted treatment-selection
// problem.
package optimize

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// StabilityResult records how much a query's aggregates moved when one
// candidate dimension attribute was added to the axes and rolled back out.
type StabilityResult struct {
	Candidate cube.AttrRef
	// MaxRelDelta is the largest relative change across cells; 0 means the
	// aggregate is perfectly consistent under the added dimension.
	MaxRelDelta float64
	// MissingShare is the fraction of the base total carried by facts with
	// no value in the candidate attribute — the mass that silently drops
	// when the attribute joins the axes. Large values explain instability.
	MissingShare float64
	Stable       bool
}

// StabilityReport is the outcome of a dimension-ablation validation.
type StabilityReport struct {
	Base      cube.Query
	Tolerance float64
	Results   []StabilityResult
}

// Stable reports whether every candidate passed.
func (r *StabilityReport) Stable() bool {
	for _, res := range r.Results {
		if !res.Stable {
			return false
		}
	}
	return true
}

// ValidateStability re-runs the base query with each candidate attribute
// added as an extra row axis, rolls the finer result back up, and compares
// cell by cell. Additive measures (count/sum) are required; tolerance is
// the largest acceptable relative deviation once missing-attribute mass is
// accounted for.
func ValidateStability(e *cube.Engine, base cube.Query, candidates []cube.AttrRef, tolerance float64) (*StabilityReport, error) {
	if base.Measure.Agg != storage.CountAgg && base.Measure.Agg != storage.SumAgg {
		return nil, fmt.Errorf("optimize: stability validation needs an additive measure, got %s", base.Measure.Agg)
	}
	if tolerance < 0 {
		return nil, fmt.Errorf("optimize: negative tolerance")
	}
	baseCS, err := e.ExecuteCtx(context.TODO(), base)
	if err != nil {
		return nil, fmt.Errorf("optimize: base query: %w", err)
	}
	baseCells := indexCells(baseCS)
	baseTotal := baseCS.Total()

	report := &StabilityReport{Base: base, Tolerance: tolerance}
	for _, cand := range candidates {
		onAxis := false
		for _, r := range append(append([]cube.AttrRef{}, base.Rows...), base.Cols...) {
			if r == cand {
				onAxis = true
				break
			}
		}
		if onAxis {
			return nil, fmt.Errorf("optimize: candidate %s already on an axis", cand)
		}
		fine := base
		fine.Rows = append([]cube.AttrRef{cand}, base.Rows...)
		// Keep missing-coordinate facts visible so the roll-up is exact; we
		// separately measure how much mass has a missing candidate value.
		fine.IncludeMissing = true
		fineCS, err := e.ExecuteCtx(context.TODO(), fine)
		if err != nil {
			return nil, fmt.Errorf("optimize: candidate %s: %w", cand, err)
		}
		// Roll NA-candidate mass back in: the delta then measures genuine
		// aggregation inconsistency, while MissingShare reports separately
		// how much mass has no value in the candidate attribute.
		rolled, missing := rollUpFirstRowAttr(fineCS, base.IncludeMissing)

		res := StabilityResult{Candidate: cand}
		if baseTotal > 0 {
			res.MissingShare = missing / baseTotal
		}
		for key, baseVal := range baseCells {
			fineVal, ok := rolled[key]
			if !ok {
				if baseVal != 0 {
					res.MaxRelDelta = math.Inf(1)
				}
				continue
			}
			var rel float64
			switch {
			case baseVal == 0 && fineVal == 0:
				rel = 0
			case baseVal == 0:
				rel = math.Inf(1)
			default:
				rel = math.Abs(fineVal-baseVal) / math.Abs(baseVal)
			}
			if rel > res.MaxRelDelta {
				res.MaxRelDelta = rel
			}
		}
		for key := range rolled {
			if _, ok := baseCells[key]; !ok && rolled[key] != 0 {
				res.MaxRelDelta = math.Inf(1)
			}
		}
		res.Stable = res.MaxRelDelta <= tolerance
		report.Results = append(report.Results, res)
	}
	return report, nil
}

// indexCells flattens a cell set into coordinate-label -> numeric value.
func indexCells(cs *cube.CellSet) map[string]float64 {
	out := make(map[string]float64)
	for i := 0; i < cs.Rows(); i++ {
		for j := 0; j < cs.Columns(); j++ {
			if f, ok := cs.Cell(i, j).AsFloat(); ok {
				out[cs.RowLabel(i)+"\x00"+cs.ColLabel(j)] = f
			}
		}
	}
	return out
}

// rollUpFirstRowAttr sums a cell set over the first row attribute. The
// candidate's own NA coordinate is always rolled back in (dropping it is
// what MissingShare diagnoses, not an inconsistency), while residual-tuple
// NA coordinates follow the base query's IncludeMissing so the rolled
// cells are keyed compatibly with the base cells.
func rollUpFirstRowAttr(cs *cube.CellSet, baseIncludeMissing bool) (map[string]float64, float64) {
	rolled := make(map[string]float64)
	var missing float64
	for i := 0; i < cs.Rows(); i++ {
		head := cs.RowHeaders[i][0]
		rest := cs.RowHeaders[i][1:]
		restNA := false
		for _, v := range rest {
			if v.IsNA() {
				restNA = true
				break
			}
		}
		restLabel := tupleLabel(rest)
		for j := 0; j < cs.Columns(); j++ {
			f, ok := cs.Cell(i, j).AsFloat()
			if !ok {
				continue
			}
			if head.IsNA() {
				missing += f
			}
			if !baseIncludeMissing && (restNA || colHasNA(cs, j)) {
				continue
			}
			rolled[restLabel+"\x00"+cs.ColLabel(j)] += f
		}
	}
	return rolled, missing
}

func colHasNA(cs *cube.CellSet, j int) bool {
	for _, v := range cs.ColHeaders[j] {
		if v.IsNA() {
			return true
		}
	}
	return false
}

// tupleLabel mirrors the cube package's header rendering for the residual
// row tuple after the first attribute is removed.
func tupleLabel(vals []value.Value) string {
	if len(vals) == 0 {
		return "(all)"
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, " / ")
}

// Treatment is one candidate intervention for the regimen optimiser.
type Treatment struct {
	Name string
	// Cost in budget units (must be positive).
	Cost float64
	// Benefit is the expected outcome improvement, typically estimated
	// from warehouse aggregates (e.g. risk reduction × cohort size).
	Benefit float64
	// Requires names a treatment that must also be selected.
	Requires string
}

// Regimen is an optimised treatment selection.
type Regimen struct {
	Selected     []Treatment
	TotalCost    float64
	TotalBenefit float64
}

// OptimizeRegimen selects the subset of treatments maximising total
// benefit within the budget, honouring Requires dependencies. The search
// is exact (branch and bound over subsets) and intended for the dozens of
// candidate interventions a clinical programme weighs, not thousands.
func OptimizeRegimen(treatments []Treatment, budget float64) (*Regimen, error) {
	if budget < 0 {
		return nil, fmt.Errorf("optimize: negative budget")
	}
	if len(treatments) > 24 {
		return nil, fmt.Errorf("optimize: exact search supports <= 24 treatments, got %d", len(treatments))
	}
	byName := make(map[string]int, len(treatments))
	for i, t := range treatments {
		if t.Cost <= 0 {
			return nil, fmt.Errorf("optimize: treatment %q has non-positive cost", t.Name)
		}
		if t.Benefit < 0 {
			return nil, fmt.Errorf("optimize: treatment %q has negative benefit", t.Name)
		}
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("optimize: duplicate treatment %q", t.Name)
		}
		byName[t.Name] = i
	}
	for _, t := range treatments {
		if t.Requires == "" {
			continue
		}
		if _, ok := byName[t.Requires]; !ok {
			return nil, fmt.Errorf("optimize: treatment %q requires unknown %q", t.Name, t.Requires)
		}
	}

	n := len(treatments)
	bestMask, bestBenefit, bestCost := 0, -1.0, 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var cost, benefit float64
		valid := true
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			t := treatments[i]
			if t.Requires != "" && mask&(1<<byName[t.Requires]) == 0 {
				valid = false
				break
			}
			cost += t.Cost
			benefit += t.Benefit
		}
		if !valid || cost > budget {
			continue
		}
		if benefit > bestBenefit || (benefit == bestBenefit && cost < bestCost) {
			bestMask, bestBenefit, bestCost = mask, benefit, cost
		}
	}
	if bestBenefit < 0 {
		return &Regimen{}, nil
	}
	reg := &Regimen{TotalCost: bestCost, TotalBenefit: bestBenefit}
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			reg.Selected = append(reg.Selected, treatments[i])
		}
	}
	sort.Slice(reg.Selected, func(a, b int) bool { return reg.Selected[a].Name < reg.Selected[b].Name })
	return reg, nil
}
