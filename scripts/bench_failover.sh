#!/bin/sh
# Benchmarks a live failover as a client behind the routing front sees
# it: the interactive mix runs open-loop through the router while the
# primary is killed. Two modes share one harness:
#
#   bench_failover.sh         operator cutover — a human posts /promote
#                             to the replica; results in BENCH_9.json
#   bench_failover.sh -auto   unattended cutover — three nodes, the
#                             followers detect the silence (RehomeAfter
#                             150ms), elect one by majority vote and
#                             it promotes itself; results in
#                             BENCH_10.json
#
# Both write machine-readable results at the repo root and fail when the
# cutover exceeds 5s to writable / 5s to first routed read, or when
# clients saw raw 5xx errors above 1% of requests — sheds (429/503 with
# Retry-After) are the designed degraded mode during the gap, error
# storms are not.
set -eu
cd "$(dirname "$0")/.."

bench='BenchmarkFailoverPromotion'
out=BENCH_9.json
if [ "${1:-}" = "-auto" ]; then
  bench='BenchmarkUnattendedFailover'
  out=BENCH_10.json
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Promotion is one-way, so each iteration builds a fresh cluster; three
# iterations keep the run short while smoothing probe-phase luck.
go test -run '^$' \
  -bench "${bench}\$" \
  -benchtime "${FAILOVER_ITERS:-3}x" . | tee "$raw"

awk '
BEGIN { print "{"; n = 0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns = ""; ttw = ""; ttfr = ""; shed = ""; err = ""
  for (i = 3; i <= NF; i++) {
    if ($i == "ns/op") ns = $(i - 1)
    if ($i == "ttw-ms") ttw = $(i - 1)
    if ($i == "ttfr-ms") ttfr = $(i - 1)
    if ($i == "shed-rate") shed = $(i - 1)
    if ($i == "err-rate") err = $(i - 1)
  }
  if (n++) printf ",\n"
  printf "  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s", name, $2, ns
  if (ttw != "") printf ", \"time_to_writable_ms\": %s", ttw
  if (ttfr != "") printf ", \"time_to_first_routed_read_ms\": %s", ttfr
  if (shed != "") printf ", \"shed_rate\": %s", shed
  if (err != "") printf ", \"error_rate\": %s", err
  printf "}"
}
END {
  print "\n}"
  if (ttw == "" || ttfr == "" || err == "") { print "missing benchmark result" > "/dev/stderr"; exit 1 }
  printf "cutover: writable in %.1f ms, first routed read in %.1f ms, shed %.4f, errors %.4f\n", ttw, ttfr, shed, err > "/dev/stderr"
  if (ttw + 0 > 5000) { print "FAIL: time to writable above 5s" > "/dev/stderr"; exit 1 }
  if (ttfr + 0 > 5000) { print "FAIL: time to first routed read above 5s" > "/dev/stderr"; exit 1 }
  if (err + 0 > 0.01) { print "FAIL: clients saw >1% raw 5xx/transport errors (sheds are fine, error storms are not)" > "/dev/stderr"; exit 1 }
}
' "$raw" > "$out"

echo "wrote $out"
