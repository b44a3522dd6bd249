package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, untraced and traced, on the paper-sized
// cohort for three seconds, and holds the output to BENCHMARK.json: the
// same workloads, the same metric names and units, correct answers, and
// no goroutine left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sixteen platforms")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	all := workloads()
	if len(all) != len(bench.Workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(all), len(bench.Workloads))
	}
	for i, w := range all {
		if w.name != bench.Workloads[i].Name {
			t.Fatalf("workload %d is %q in the program, %q in BENCHMARK.json", i, w.name, bench.Workloads[i].Name)
		}
		for _, trace := range []bool{false, true} {
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			before := runtime.NumGoroutine()
			res, err := run(options{workload: w, seed: 3, seconds: 3 * time.Second, trace: trace, patients: 900, tmp: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s is declared in %s but printed as %+v", w.name, trace, m.Name, m.Unit, got)
				}
			}
			if after := settledGoroutines(before + 2); after > before+2 {
				t.Errorf("%s trace=%v: %d goroutines before, %d after", w.name, trace, before, after)
			}
		}
	}
}
