// Command figures regenerates the tables and figures of the paper's
// evaluation (§V) against the synthetic DiScRi warehouse.
//
// Usage:
//
//	figures [-exp all|table1|fig1|fig2|fig3|fig4|fig5|fig6] [-patients N] [-seed S] [-source batch|cdc]
//
// With -source cdc the warehouse is populated through the change-data-
// capture path (seed half the cohort, stream the rest through
// incremental refresh) instead of bootstrapping from an in-memory store
// at once; the figures read from the cube must come out identical.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig1, fig2, fig3, fig4, fig5, fig6")
	patients := flag.Int("patients", 900, "synthetic cohort size")
	seed := flag.Int64("seed", 0, "generator seed (0 = paper default)")
	source := flag.String("source", "batch", "warehouse population path: batch (bootstrap from an in-memory store) or cdc (stream through incremental refresh)")
	flag.Parse()

	if err := run(*exp, *patients, *seed, *source); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(exp string, patients int, seed int64, source string) error {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = patients
	if seed != 0 {
		dcfg.Seed = seed
	}
	var p *core.Platform
	var err error
	switch source {
	case "batch":
		p, err = core.NewDiScRiPlatform(core.Config{}, dcfg)
	case "cdc":
		var dir string
		dir, err = os.MkdirTemp("", "ddgms-figures-cdc-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		p, err = experiments.NewCDCPlatform(dir, dcfg)
	default:
		return fmt.Errorf("unknown source %q (want batch or cdc)", source)
	}
	if err != nil {
		return err
	}
	defer p.Close()
	w := os.Stdout

	sep := func() {
		fmt.Fprintln(w, "\n────────────────────────────────────────────────────────────")
	}
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("table1") {
		ran = true
		if err := experiments.TableI(w, p); err != nil {
			return err
		}
		sep()
	}
	if want("fig1") {
		ran = true
		if err := experiments.Fig1(w); err != nil {
			return err
		}
		sep()
	}
	if want("fig3") {
		ran = true
		if err := experiments.Fig3(w, p); err != nil {
			return err
		}
		sep()
	}
	if want("fig4") {
		ran = true
		if _, err := experiments.Fig4(w, p); err != nil {
			return err
		}
		sep()
	}
	if want("fig5") {
		ran = true
		r, err := experiments.Fig5(w, p)
		if err != nil {
			return err
		}
		if err := experiments.CheckFig5Shape(r); err != nil {
			fmt.Fprintln(w, "  SHAPE CHECK FAILED:", err)
		} else {
			fmt.Fprintln(w, "  shape check: males dominate 70-75, females 75-80, female share drops past 78 ✓")
		}
		sep()
	}
	if want("fig6") {
		ran = true
		r, err := experiments.Fig6(w, p)
		if err != nil {
			return err
		}
		if err := experiments.CheckFig6Shape(r); err != nil {
			fmt.Fprintln(w, "  SHAPE CHECK FAILED:", err)
		} else {
			fmt.Fprintln(w, "  shape check: 5-10y hypertension cases dip in 70-75 and 75-80 ✓")
		}
		sep()
	}
	// Fig 2 mutates the platform (feedback dimension), so it runs last.
	if want("fig2") {
		ran = true
		if err := experiments.Fig2(w, p); err != nil {
			return err
		}
		sep()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
