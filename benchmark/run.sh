#!/usr/bin/env bash
# Builds the benchmark from source and runs it as one process:
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the root of a checkout. Everything the build and the run
# leave behind goes under .bench_build/ there, nothing outside it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local
export BENCH_OUT="$build/out"
(cd benchmark && go build -o "$build/ddgms-bench" .)
exec "$build/ddgms-bench" "$@"
