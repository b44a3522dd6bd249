// Command benchmark is the one benchmark of this repository. It builds a
// DD-DGMS platform over a synthetic DiScRi cohort at a fixed scale factor,
// hosts the handler stack `ddgms serve -follow` builds on a loopback
// listener inside its own process, drives it with a seeded workload and
// prints one JSON line of metrics. See README.md for what each workload
// and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one traffic mix. Reads are open loop at readRate for the
// first part of the run; what the second part and the writer do depends
// on the mix and is spelled out in run.
type workload struct {
	name     string
	readRate float64 // reads/s in the open-loop phase, 0 for none
	mix      []weighted
	txRate   float64 // single-row commits/s in the open-loop phase, 0 for none
}

func workloads() []workload {
	additive := mdxPool(additiveMeasures...)
	sql, flat := scanPool()
	return []workload{
		{name: "cube_warm", readRate: 300, mix: []weighted{{1, additive}}},
		{name: "flat_scan", readRate: 150, mix: []weighted{{0.6, sql}, {0.4, flat}}},
		{name: "ingest", txRate: 50},
		{name: "mixed", readRate: 100, txRate: 4,
			mix: []weighted{{0.7, append(additive, mdxPool(distinctMeasure)...)}, {0.3, sql}}},
	}
}

const (
	openShare   = 0.6  // of --seconds spent in the first (open-loop) phase
	burstRows   = 250  // single-row transactions per ingest burst
	rowPool     = 2048 // distinct attendances a writer cycles through
	setupRounds = 3    // set-ups per untraced run; setup_s is their median
	rateSlice   = 500 * time.Millisecond
	// hardDeadline is well inside the 180 s a run is allowed: whatever
	// hangs, the process exits and takes its goroutines with it.
	hardDeadline = 150 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload workload
	seed     int64
	seconds  time.Duration
	trace    bool
	patients int
	tmp      string // where store directories are created; empty means $TMPDIR
	out      string // where <workload>.trace.json is written
}

func main() {
	name := flag.String("workload", "", "cube_warm, flat_scan, ingest or mixed")
	seed := flag.Int64("seed", 1, "seed of the arrival, mix and parameter streams")
	seconds := flag.Float64("seconds", 15, "measuring time")
	trace := flag.Int("trace", 0, "1 replays the inputs layer by layer and prints the per-layer metrics")
	patients := flag.Int("patients", 5000, "cohort scale factor")
	flag.Parse()

	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintln(os.Stderr, "bench: hard deadline passed, giving up")
		os.Exit(3)
	})
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	opts := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, patients: *patients, out: os.Getenv("BENCH_OUT")}
	for _, w := range workloads() {
		if w.name == *name {
			opts.workload = w
		}
	}
	if opts.workload.name == "" {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
