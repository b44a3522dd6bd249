// Treatment-regimen optimisation: the strategic-user scenario — "clinical
// administrators and policy makers seek information relevant for
// optimising treatment regimen that have the best individual outcomes ...
// within the economic constraints of the current health care system."
// Intervention benefits are estimated from warehouse aggregates, then the
// regimen is optimised under a budget.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/optimize"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

func main() {
	p, err := core.NewDiScRiPlatform(core.Config{}, discri.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	// Estimate exposure sizes from the warehouse: how many patients fall
	// in each risk group an intervention would target?
	patientsWhere := func(ref cube.AttrRef, val string) float64 {
		cs, err := p.QueryCtx(context.Background(), cube.Query{
			Rows:    []cube.AttrRef{ref},
			Slicers: []cube.Slicer{{Ref: ref, Values: []value.Value{value.Str(val)}}},
			Measure: core.PatientCountMeasure(),
		})
		if err != nil {
			log.Fatal(err)
		}
		return cs.Total()
	}
	preDiabetic := patientsWhere(core.RefFBGBand, "preDiabetic")
	diabetic := patientsWhere(core.RefFBGBand, "Diabetic")
	sedentary := patientsWhere(core.RefExercise, "none")
	hypertensive := patientsWhere(core.RefHTStatus, "Yes")
	lowRRVar := patientsWhere(core.RefRRVarBand, "low")
	fmt.Printf("risk groups (distinct patients): preDiabetic=%g diabetic=%g sedentary=%g hypertensive=%g lowRRVar=%g\n\n",
		preDiabetic, diabetic, sedentary, hypertensive, lowRRVar)

	// Candidate interventions: cost in programme units, benefit as
	// exposure × assumed per-patient risk reduction.
	treatments := []optimize.Treatment{
		{Name: "pre-diabetes education", Cost: 3, Benefit: preDiabetic * 0.30},
		{Name: "glucose self-monitoring", Cost: 2, Benefit: diabetic * 0.10},
		{Name: "intensive glycaemic control", Cost: 6, Benefit: diabetic * 0.25, Requires: "glucose self-monitoring"},
		{Name: "community exercise program", Cost: 4, Benefit: sedentary * 0.20},
		{Name: "hypertension review clinic", Cost: 5, Benefit: hypertensive * 0.15},
		{Name: "autonomic (CAN) screening", Cost: 3, Benefit: lowRRVar * 0.35},
	}
	for _, budget := range []float64{6, 12, 20} {
		reg, err := optimize.OptimizeRegimen(treatments, budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("budget %2.0f -> benefit %6.1f, cost %4.1f:\n", budget, reg.TotalBenefit, reg.TotalCost)
		for _, t := range reg.Selected {
			fmt.Printf("    %-28s cost %3.0f  benefit %6.1f\n", t.Name, t.Cost, t.Benefit)
		}
	}

	// Validate the exposure aggregates before acting on them: they must
	// be stable when other dimensions join the analysis.
	rep, err := p.ValidateStability(cube.Query{
		Rows:    []cube.AttrRef{core.RefFBGBand},
		Measure: cube.MeasureRef{Agg: storage.CountAgg},
	}, []cube.AttrRef{core.RefGender, core.RefExercise}, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexposure aggregates stable under dimension ablation: %v\n", rep.Stable())
}
