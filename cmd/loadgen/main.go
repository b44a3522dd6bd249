// Command loadgen is the open-loop load generator for ddgms serve.
//
// It drives seeded scenarios (endpoint mixes over MDX, DG-SQL,
// flatquery and /freshness, under constant/poisson/ramp arrivals)
// against a remote server given by -target — or an in-process
// self-serve target when -target is empty — and reports per-endpoint
// latency percentiles, achieved vs offered rate and shed rate. -smoke
// is the CI gate scripts/loadgen_smoke.sh runs. Engine performance is
// measured by the frozen benchmark (benchmark/, BENCHMARK.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ddgms/ddgms/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	scenarios := fs.String("scenario", "interactive,analytics",
		"comma-separated scenario names ("+strings.Join(loadgen.Builtins(), ", ")+") or JSON scenario file paths")
	target := fs.String("target", "", "base URL of the server under test; empty boots an in-process self-serve target")
	duration := fs.Duration("duration", 0, "per-run duration; 0 uses each scenario's duration_s (fallback 5s)")
	rps := fs.Float64("rps", 0, "override the scenario's offered rate")
	out := fs.String("out", "", "write the reports, one JSON array entry per scenario, to this path")
	smoke := fs.Bool("smoke", false, "tiny CI run: constant low rate, fail on zero throughput or any 5xx")
	seed := fs.Int64("seed", 0, "override every scenario's seed (0 keeps scenario seeds)")
	fs.Parse(os.Args[1:])

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scens, err := loadScenarios(*scenarios, *seed)
	if err != nil {
		return err
	}

	base := *target
	if base == "" {
		ss, err := loadgen.StartSelfServe()
		if err != nil {
			return err
		}
		defer ss.Close()
		base = ss.URL
		fmt.Fprintf(os.Stderr, "loadgen: self-serve target at %s\n", base)
	}

	if *smoke {
		return runSmoke(ctx, base, scens[0], *duration)
	}

	var reps []*loadgen.Report
	for _, sc := range scens {
		rep, err := loadgen.Run(ctx, loadgen.RunConfig{
			Target:       base,
			Scenario:     sc,
			Duration:     *duration,
			RateOverride: *rps,
		})
		if err != nil {
			return err
		}
		fmt.Println(rep.String())
		reps = append(reps, rep)
	}
	if *out != "" {
		return writeJSON(*out, reps)
	}
	return nil
}

// runSmoke is the CI gate: a short constant-rate run that must move
// traffic and must not surface a single 5xx.
func runSmoke(ctx context.Context, base string, sc loadgen.Scenario, d time.Duration) error {
	if d <= 0 {
		d = 2 * time.Second
	}
	sc.Arrival = loadgen.Arrival{Process: loadgen.ArrivalConstant, RPS: 20}
	rep, err := loadgen.Run(ctx, loadgen.RunConfig{Target: base, Scenario: sc, Duration: d})
	if err != nil {
		return err
	}
	fmt.Println(rep.String())
	if rep.Overall.OK == 0 {
		return fmt.Errorf("smoke: no successful responses (%d sent, %d transport errors)",
			rep.Overall.Requests, rep.Overall.TransportErrors)
	}
	if rep.Overall.TransportErrors > 0 {
		return fmt.Errorf("smoke: %d transport errors", rep.Overall.TransportErrors)
	}
	for code, n := range rep.Overall.Status {
		if c, _ := strconv.Atoi(code); c >= 500 {
			return fmt.Errorf("smoke: %d responses with status %s", n, code)
		}
	}
	fmt.Println("smoke: ok")
	return nil
}

// loadScenarios resolves a comma-separated list of builtin names and
// JSON file paths.
func loadScenarios(list string, seed int64) ([]loadgen.Scenario, error) {
	var scens []loadgen.Scenario
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sc, ok := loadgen.Builtin(name)
		if !ok {
			raw, err := os.ReadFile(name)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: not a builtin (%s) and not a readable file: %w",
					name, strings.Join(loadgen.Builtins(), ", "), err)
			}
			sc, err = loadgen.ParseScenario(raw)
			if err != nil {
				return nil, fmt.Errorf("scenario file %s: %w", name, err)
			}
		}
		if seed != 0 {
			sc.Seed = seed
		}
		scens = append(scens, sc)
	}
	if len(scens) == 0 {
		return nil, fmt.Errorf("no scenarios given")
	}
	return scens, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
