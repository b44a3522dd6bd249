#!/bin/sh
# Failover soak: the promotion and fencing invariants under the race
# detector, across the deterministic faultnet sweep:
#
#   - a promoted follower takes over writes at epoch+1 and surviving
#     followers re-home onto it (fault-swept: the re-home dial is hit
#     with drop/partial/corrupt/stall at every early op)
#   - the returned stale primary is fenced by the higher epoch before
#     it can fork the timeline (local commits refused)
#   - replica-mode round trips keep tx-id continuity and a verifiable
#     WAL tail across SetReplica(true) -> apply -> promote
#   - platform-level figures stay byte-identical to a never-failed
#     control across the whole kill -> promote -> re-home cycle
#
# With -auto it additionally runs the unattended story: the election
# rules and the deterministic simulation that drives them over 3-, 4-
# and 5-node model clusters (2,000 seeds each: at most one winner per epoch,
# one primary at the max epoch after healing), the node watchdog suite,
# and the chaos soak — followers elect over -peers, two stateless fronts
# route, self-heal rejoins, no operator step anywhere — swept across
# churn seeds (DDGMS_SOAK_SEEDS, space-separated). Each soak round
# asserts figures byte-identical to a never-failed control, the epoch
# advancing exactly once, no two primaries in one epoch, and goroutines
# settling back to baseline afterwards.
#
# This script is the operator entry point and the check.sh gate.
set -eu
cd "$(dirname "$0")/.."

echo "== promotion + fencing sweep (-race, -count=${FAILOVER_COUNT:-1})"
go test -race -count="${FAILOVER_COUNT:-1}" \
	-run 'TestPromote|TestStalePrimaryFencedByHigherEpoch|TestEpochAndCursorPersistence|TestPromotionEpochSurvivesRestart' \
	./internal/repl/

echo "== epoch + vote record crash sweeps (-race)"
go test -race -run 'TestEpochSaveCrashSweep|TestEpochFirstSaveCrashSweep|TestVoteSaveCrashSweep|TestVoteFirstSaveCrashSweep' ./internal/repl/

echo "== replica-mode promotion round trip (-race)"
go test -race -run 'TestReplicaPromotionRoundTrip|TestVerifyWALTail' ./internal/oltp/

echo "== platform failover soak: figures byte-equivalent to control (-race)"
go test -race -run 'TestFailoverSoakFiguresByteEquivalent' -count="${FAILOVER_COUNT:-1}" ./internal/core/

if [ "${1:-}" = "-auto" ]; then
	echo "== election rules + simulation, 3, 4 and 5 nodes x 2,000 seeds (-race)"
	go test -race -run 'TestElection|TestCandidateDying|TestLostCandidate|TestBallot|TestVote' ./internal/repl/

	echo "== stateless front: probe backoff, idempotent replay (-race)"
	go test -race -run 'TestProbeBackoff|TestIdempotentRead' ./internal/router/

	echo "== node watchdog suite: fence hook, discovery demotion, survivor re-home, election (-race)"
	go test -race -run 'TestSelfHeal|TestElection' ./internal/core/

	echo "== unattended chaos soak: kill -> detect -> elect -> promote -> rejoin, two fronts (-race)"
	for seed in ${DDGMS_SOAK_SEEDS:-1 2 3}; do
		echo "   -- churn seed $seed"
		DDGMS_SOAK_SEED=$seed go test -race \
			-run 'TestUnattendedFailoverConvergence' -count=1 .
	done
fi

echo "failover soak: OK"
