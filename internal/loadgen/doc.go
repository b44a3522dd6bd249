// Package loadgen is the open-loop load generator for ddgms serve.
//
// Open-loop means non-coordinating: requests are fired on a schedule
// fixed before the run starts — the arrival process — regardless of how
// fast the server answers. A closed-loop driver (N workers, each
// waiting for its response before sending the next) implicitly slows
// its offered load to whatever the server sustains, which hides
// overload entirely: the coordinated-omission trap. Under an open-loop
// driver, a server at capacity visibly sheds (429/503) or queues
// (latency grows).
//
// The pieces:
//
//   - Scenario: a seeded, JSON-serialisable workload description — an
//     endpoint mix over MDX (/query), DG-SQL (/sql), the flat-scan
//     baseline (/flatquery) and /freshness, plus an arrival process
//     (constant, poisson, ramp). Same scenario + same seed = same
//     request schedule and same query parameters, so runs are
//     reproducible and comparable across builds.
//   - Run: drive one scenario at one offered rate against a target
//     server, producing a Report — per-endpoint p50/p95/p99, achieved
//     vs offered RPS, shed rate, and server-side counter deltas scraped
//     from /metrics.
//   - StartSelfServe: a hermetic in-process target (small synthetic
//     cohort, governed server) so smoke tests need no external process.
//
// Engine performance is measured by the frozen benchmark (benchmark/,
// BENCHMARK.json), not here.
package loadgen
