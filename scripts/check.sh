#!/bin/sh
# Tier-1+ gate: everything the repo requires before a change lands.
# Extends the tier-1 command (go build + go test) with vet and the race
# detector, which the parallel execution kernel makes load-bearing.
#
# After the full -race pass, each (package, -run filter, environment)
# combination runs at most once more, and only where the full pass cannot
# stand in for it: -count=2 flake re-runs, the allocation gate (its tests
# skip under -race) and churn seeds other than the default. scripts/soak.sh and scripts/failover_soak.sh re-run
# subsets the full pass already covers; they stay operator entry points.
set -eu
cd "$(dirname "$0")/.."

# stage closes the running stage with its elapsed seconds and, given a
# title, opens the next one.
start=$(date +%s) last=
stage() { now=$(date +%s); [ -z "$last" ] || echo "   ($((now - last))s)"; last=$now; [ $# -eq 0 ] || echo "== $*"; }

stage "gofmt -l (no unformatted Go file)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted" >&2
	echo "check: the files above are not gofmt-formatted; run gofmt -w on them" >&2
	exit 1
fi

stage "go vet ./..."
go vet ./...

stage "go build ./..."
go build ./...

stage "go test -race ./..."
go test -race ./...

stage "frozen benchmark harness builds and smokes against the internal API"
(cd benchmark && go vet ./... && go test -short ./...)

stage "one entry point per query layer (no new *Traced twin, no kernel-path option, one row selection, no cube member index, one warehouse set-up, one log codec, one logging path)"
if grep -rnE '^func .*Traced\(' --include='*.go' internal cmd examples | grep -v '_test\.go:'; then
	echo "check: a *Traced twin is back; carry the span in the context (obs.StartSpan)" >&2
	exit 1
fi
if grep -rn 'WithVectorized' --include='*.go' . | grep -v '_test\.go:'; then
	echo "check: WithVectorized is back; the scalar path is a test oracle (internal/exec/oracle_test.go)" >&2
	exit 1
fi
if grep -rnE 'RowPredicate|GroupByFiltered' --include='*.go' . | grep -v '_test\.go:'; then
	echo "check: a per-row filter is back; front-ends compile their filters to a row selection (exec.SelectRows)" >&2
	exit 1
fi
if grep -rnE 'bitmapFor|growBitmaps|type Bitmap struct' --include='*.go' internal/cube | grep -v '_test\.go:'; then
	echo "check: the cube's member-bitmap index is back; slicers compile to a row selection (exec.SelectRows)" >&2
	exit 1
fi
if find internal/exec -name '*.go' ! -name '*_test.go' -exec awk '/^type GroupInput struct/,/^}/' {} + | grep 'func('; then
	echo "check: GroupInput has a func field again; the kernel reads one row selection, GroupInput.Rows" >&2
	exit 1
fi
if grep -rnE '^func \([a-z]+ \*Platform\) (Transform|BuildWarehouse)\(' --include='*.go' internal/core | grep -v '_test\.go:'; then
	echo "check: a batch set-up phase is back; the warehouse is stood up by StartFollow only" >&2
	exit 1
fi
if [ "$(grep -rnE 'p\.follower [!=]= nil' --include='*.go' internal/core | grep -vc '_test\.go:')" -gt 1 ]; then
	grep -rnE 'p\.follower [!=]= nil' --include='*.go' internal/core | grep -v '_test\.go:'
	echo "check: a second p.follower nil check; go through the one not-built check, Platform.built" >&2
	exit 1
fi
if grep -rnE 'castagnoli|frameHeader' --include='*.go' internal/oltp | grep -v '_test\.go:' | grep -v '^internal/oltp/frame\.go:'; then
	echo "check: a second WAL frame codec; read and write frames through internal/oltp/frame.go (readFrame, writeFrame)" >&2
	exit 1
fi
loggers=$(find internal/oltp -name '*.go' ! -name '*_test.go' -exec awk '/^func /{fn=$0} /s\.wal\.sync\(\)/ && fn ~ /^func \(s \*Store\) log/ {print FILENAME ": " fn}' {} + | sort -u)
if [ "$(printf '%s\n' "$loggers" | grep -c .)" -gt 1 ]; then
	printf '%s\n' "$loggers"
	echo "check: a second WAL logging path; local and replicated commits log through Store.logTxs" >&2
	exit 1
fi

stage "fault suite (crash recovery + WAL corruption, -count=2)"
go test -race -run 'Crash|Fault' -count=2 ./internal/oltp/ ./internal/faultfs/

stage "metrics suite (registry + trace + exposition under race, -count=2)"
go test -race -count=2 ./internal/obs/

stage "refresh-equivalence soak (randomized commit/refresh interleavings, retention pins, follow-loop backoff, -count=2)"
go test -race -run 'TestRefresh' -count=2 ./internal/refresh/

stage "allocation regression gate (arena kernel, O(delta) refresh, columnar set-up, refresh batch, filtered scans, sliced cube miss, WAL work per commit and per poll; no race detector)"
go test -run 'TestGroupByCodedAllocBudget|TestApplyDeltaAllocScaling|TestSetupAllocBudget|TestRefreshBatchAllocBudget|TestSQLFilteredAllocBudget|TestFlatQueryFilteredAllocBudget|TestCubeSlicedMissAllocBudget|TestWALWorkBudget' .

stage "replication partition soak (fault sweep, kill/restart, disk bound, snapshot bootstrap, -count=2)"
go test -race -run 'TestFaultSweep|TestFollowerRestart|TestPrimaryDiskBounded|TestSnapshotBootstrap' -count=2 ./internal/repl/

stage "failover suite (routing front -count=2, unattended chaos soak over churn seeds 2 and 3)"
go test -race -count=2 ./internal/router/
for seed in 2 3; do
	echo "   -- churn seed $seed"
	DDGMS_SOAK_SEED=$seed go test -race -run 'TestUnattendedFailoverConvergence' -count=1 .
done

stage "loadgen smoke (open-loop run against self-serve target, zero 5xx)"
sh scripts/loadgen_smoke.sh

stage
echo "check: OK ($(($(date +%s) - start))s)"
