// Diabetes screening walkthrough: the operational-user session of the
// paper's §V — the Fig 4 family-history crosstab, the Fig 5 drill-down
// that exposes the gender effect in the older age groups, the reflex ×
// glucose interaction surfaced by the analytics feature, and the finding
// flowing into the knowledge base.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/mining"
	"github.com/ddgms/ddgms/internal/value"
	"github.com/ddgms/ddgms/internal/viz"
)

func main() {
	p, err := core.NewDiScRiPlatform(core.Config{}, discri.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	// --- Fig 4: family history of diabetes by age group and gender. ---
	cs, err := p.QueryCtx(context.Background(), cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBandTbl},
		Cols:    []cube.AttrRef{core.RefGender},
		Slicers: []cube.Slicer{{Ref: core.RefFamHist, Values: []value.Value{value.Str("Yes")}}},
		Measure: core.PatientCountMeasure(),
	})
	if err != nil {
		log.Fatal(err)
	}
	viz.CrossTab(os.Stdout, "patients with a family history of diabetes, by age group and gender:", cs)

	// --- Fig 5: diabetic patients by age and gender, then drill down. ---
	q := cube.Query{
		Rows:    []cube.AttrRef{core.RefAgeBand10},
		Cols:    []cube.AttrRef{core.RefGender},
		Slicers: []cube.Slicer{{Ref: core.RefDiabetes, Values: []value.Value{value.Str("Yes")}}},
		Measure: core.PatientCountMeasure(),
	}
	fine, err := p.Engine().DrillDown(q, core.RefAgeBand10)
	if err != nil {
		log.Fatal(err)
	}
	fcs, err := p.QueryCtx(context.Background(), fine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	viz.GroupedBarChart(os.Stdout, "diabetic patients, 5-year age bands (the Fig 5 drill-down):", fcs)

	// The drill-down exposes the gender effect: record it as a finding.
	id, err := p.RecordFinding("diabetes",
		"males dominate the 70-75 diabetic subgroup, females the 75-80 subgroup; female share drops past 78",
		"olap-drilldown")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecorded finding %s in the knowledge base\n", id)

	// --- The §II interaction: absent reflexes + mid-range glucose. ---
	// Isolate a dataset from the warehouse features and inspect the AWSum
	// weights of evidence (the paper's ref [9] classifier).
	ds, err := p.Mine([]string{"FBGBand", "ReflexStatus"}, "DiabetesStatus")
	if err != nil {
		log.Fatal(err)
	}
	aw := mining.NewAWSum()
	if err := aw.Fit(ds); err != nil {
		log.Fatal(err)
	}
	ev, err := aw.TopEvidence(ds.Features, value.Str("Yes"), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrongest weights of evidence toward diabetes (AWSum):")
	for _, e := range ev {
		fmt.Printf("  %s = %-12s -> %.2f\n", e.Feature, e.Value, e.Weight)
	}

	// Association rules confirm the interaction explicitly.
	rules, err := mining.Apriori(p.Flat(),
		[]string{"FBGBand", "ReflexStatus", "DiabetesStatus"},
		mining.AprioriConfig{MinSupport: 0.02, MinConfidence: 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nassociation rules (support >= 2%, confidence >= 70%):")
	for i, r := range rules {
		if i == 6 {
			break
		}
		fmt.Println(" ", r)
	}
}
