// Quickstart: stand up a DD-DGMS platform on the synthetic DiScRi cohort
// and run one multivariate OLAP query — the shortest path from nothing to
// a decision-guidance answer.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/viz"
)

func main() {
	// 1. Generate a small synthetic screening cohort (in a real
	//    deployment this is the clinic's accumulated data).
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 300

	// 2. One call runs all platform phases: acquisition into the
	//    transactional store, ETL (cleaning, Table I discretisation,
	//    cardinality), warehouse load, OLAP engine and MDX evaluator.
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	fmt.Printf("warehouse: %d attendances, %d dimensions\n\n",
		p.Warehouse().Fact().Len(), len(p.Warehouse().Dimensions()))

	// 3. Ask a multivariate question in MDX: how many distinct patients
	//    are diabetic, by age band and gender?
	cs, err := p.QueryMDXCtx(context.Background(), `
		SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS,
		       NON EMPTY {[PersonalInformation].[AgeBand10].MEMBERS} ON ROWS
		FROM [MedicalMeasures]
		WHERE ([MedicalCondition].[DiabetesStatus].[Yes], [Measures].[PatientCount])`)
	if err != nil {
		log.Fatal(err)
	}
	if err := viz.CrossTab(os.Stdout, "diabetic patients by age band and gender:", cs); err != nil {
		log.Fatal(err)
	}
}
