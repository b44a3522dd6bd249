#!/bin/sh
# Benchmarks the compressed-execution kernels: the reference grouping
# forced onto each physical column encoding (flat, bit-packed, RLE) with
# the resident code-vector bytes reported per encoding, plus the same
# grouping on the encodings the heuristic picks for context. Writes
# machine-readable results to BENCH_6.json next to this script's repo
# root.
set -eu
cd "$(dirname "$0")/.."

out=BENCH_6.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkGroupByEncoded/|BenchmarkGroupByCoded$' \
  -benchmem . | tee "$raw"

awk '
BEGIN { print "{"; n = 0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns = ""; bytes = ""; allocs = ""; colbytes = ""
  for (i = 3; i <= NF; i++) {
    if ($i == "ns/op") ns = $(i - 1)
    if ($i == "B/op") bytes = $(i - 1)
    if ($i == "allocs/op") allocs = $(i - 1)
    if ($i == "column-bytes") colbytes = $(i - 1)
  }
  if (n++) printf ",\n"
  printf "  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
    name, $2, ns, bytes, allocs
  if (colbytes != "") printf ", \"column_bytes\": %s", colbytes
  printf "}"
}
END { print "\n}" }
' "$raw" > "$out"

echo "wrote $out"
