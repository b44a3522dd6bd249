#!/bin/sh
# Overload soak: drives the governed server through a sustained
# overload (16 streams against 2 slots) and a cancellation storm under
# the race detector, asserting the resource-governance invariants:
#
#   - shed requests answer 429/503 with Retry-After, never 504
#   - client cancellations release their admission slots
#   - goroutine count returns to baseline after the storm
#   - admitted-query p99 stays bounded by queue wait + service time
#
# The harness lives in internal/experiments/soak_test.go (RunSoak); this
# script is the operator entry point and the check.sh gate.
set -eu
cd "$(dirname "$0")/.."

echo "== overload soak (-race, -count=${SOAK_COUNT:-1})"
go test -race -v -run 'TestSoak' -count="${SOAK_COUNT:-1}" ./internal/experiments/

echo "soak: OK"
