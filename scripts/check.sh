#!/bin/sh
# Tier-1+ gate: everything the repo requires before a change lands.
# Extends the tier-1 command (go build + go test) with vet and the race
# detector, which the parallel execution kernel makes load-bearing.
set -eu
cd "$(dirname "$0")/.."

# stage closes the running stage with its elapsed seconds and, given a
# title, opens the next one.
start=$(date +%s) last=
stage() { now=$(date +%s); [ -z "$last" ] || echo "   ($((now - last))s)"; last=$now; [ $# -eq 0 ] || echo "== $*"; }

stage "go vet ./..."
go vet ./...

stage "go build ./..."
go build ./...

stage "go test -race ./..."
go test -race ./...

stage "frozen benchmark harness builds and smokes against the internal API"
(cd benchmark && go vet ./... && go test -short ./...)

stage "one entry point per query layer (no new *Traced twin, no kernel-path option)"
# etl.Pipeline.RunTraced is the write path, which has no ctx to carry a span.
if grep -rnE '^func .*Traced\(' --include='*.go' internal cmd examples |
	grep -v '_test\.go:' | grep -v 'internal/etl/pipeline\.go:.*) RunTraced('; then
	echo "check: a *Traced twin is back; carry the span in the context (obs.StartSpan)" >&2
	exit 1
fi
if grep -rn 'WithVectorized' --include='*.go' . | grep -v '_test\.go:'; then
	echo "check: WithVectorized is back; the scalar path is a test oracle (internal/exec/oracle_test.go)" >&2
	exit 1
fi

stage "fault suite (crash recovery + WAL corruption, -count=2)"
go test -race -run 'Crash|Fault' -count=2 ./internal/oltp/ ./internal/faultfs/

stage "metrics suite (registry + trace + exposition under race, -count=2)"
go test -race -count=2 ./internal/obs/
go test -race -run 'Trace|Metrics|ErrorCounter' ./internal/server/

stage "refresh-equivalence soak (randomized commit/refresh interleavings, -count=2)"
go test -race -run 'TestRefresh' -count=2 ./internal/refresh/
go test -race -run 'TestTailWAL|TestTailer' ./internal/oltp/ ./internal/cdc/

stage "refresh-equivalence soak per column encoding (flat/packed/rle forced)"
# The cube reads raw codes in ApplyDelta, DrillThrough and bitmap
# construction, so its delta, lattice and drill-through suites run per
# encoding too.
for enc in flat packed rle; do
	echo "   -- DDGMS_FORCE_ENCODING=$enc"
	DDGMS_FORCE_ENCODING=$enc go test -race -run 'TestRefresh' ./internal/refresh/
	DDGMS_FORCE_ENCODING=$enc go test -race -run 'TestApplyDelta|TestQuick|TestLattice|TestDrillThrough' ./internal/cube/
done

stage "encoding equivalence battery (coded kernels vs scalar oracle)"
go test -race -run 'TestEncodingEquivalence|Fuzz' ./internal/exec/

stage "allocation regression gate (arena kernel, no race detector)"
go test -run 'TestGroupByCodedAllocBudget|TestEncodedColumnBytesReduction' .

stage "replication partition soak (fault sweep, kill/restart, figure equivalence)"
go test -race -run 'TestFaultSweep|TestFollowerRestart|TestPrimaryDiskBounded|TestSnapshotBootstrap' -count=2 ./internal/repl/
go test -race -count=1 ./internal/faultnet/
go test -race -run 'TestReplicaFiguresMatchPrimary' -count=1 ./internal/core/
go test -race -run 'TestApplyReplicated|TestPinWALAtDurable|TestRetentionFloor' -count=1 ./internal/oltp/

stage "failover suite (promotion, fencing, routing front smoke)"
go test -race -count=2 ./internal/router/
go test -race -run 'TestRouterClassifiesEveryRoute|TestHandlePromote' ./internal/server/
sh scripts/failover_soak.sh -auto

stage "governance suite (cancellation, admission, budgets, breaker)"
go test -race -run 'Cancel|Budget|Admission|Breaker|Timeout|Shutdown' \
	./internal/exec/ ./internal/govern/ ./internal/server/ ./internal/refresh/
sh scripts/soak.sh

stage "loadgen smoke (open-loop run against self-serve target, zero 5xx)"
sh scripts/loadgen_smoke.sh

stage
echo "check: OK ($(($(date +%s) - start))s)"
