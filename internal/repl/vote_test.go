package repl

import (
	"net"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/oltp"
)

// silentVoter is a follower of epoch 1 at cursor 1:100 whose feed has
// been down long enough to vote.
var silentVoter = Voter{Follower: true, Silent: true, Epoch: 1, Cursor: oltp.WALCursor{Seq: 1, Off: 100}}

func voteFor(epoch uint64, id string) VoteRequest {
	return VoteRequest{Epoch: epoch, ID: id, Follows: 1, Cursor: oltp.WALCursor{Seq: 1, Off: 100}}
}

func TestVoteGrantRule(t *testing.T) {
	ahead := voteFor(2, "b")
	ahead.Cursor = oltp.WALCursor{Seq: 2, Off: 0}
	behind := voteFor(2, "b")
	behind.Cursor = oltp.WALCursor{Seq: 1, Off: 99}
	laterEpoch := voteFor(3, "b")
	laterEpoch.Follows, laterEpoch.Cursor = 2, oltp.WALCursor{}
	earlierEpoch := voteFor(3, "b")
	earlierEpoch.Follows, earlierEpoch.Cursor = 0, oltp.WALCursor{Seq: 9}

	live := silentVoter
	live.Silent = false
	primary := silentVoter
	primary.Follower = false

	cases := []struct {
		name  string
		v     Voter
		req   VoteRequest
		voted uint64
		want  bool
	}{
		{"silent follower, same epoch and cursor", silentVoter, voteFor(2, "b"), 0, true},
		{"candidate further along", silentVoter, ahead, 0, true},
		{"epoch skips ahead after lost rounds", silentVoter, voteFor(7, "b"), 4, true},
		{"candidate behind the voter", silentVoter, behind, 0, false},
		{"voter still hears its primary", live, voteFor(2, "b"), 0, false},
		{"voter is a primary", primary, voteFor(2, "b"), 0, false},
		{"epoch already voted for", silentVoter, voteFor(2, "b"), 2, false},
		{"epoch below one voted for", silentVoter, voteFor(2, "b"), 3, false},
		{"epoch not above the followed one", silentVoter, voteFor(1, "b"), 0, false},
		{"candidate follows a later epoch, any cursor", silentVoter, laterEpoch, 0, true},
		{"candidate follows an earlier epoch, any cursor", silentVoter, earlierEpoch, 0, false},
		{"a rejoining ex-primary grants even a straggler", Voter{Rejoining: true, Epoch: 2}, earlierEpoch, 0, true},
		{"but only above the epoch it has seen", Voter{Rejoining: true, Epoch: 3}, earlierEpoch, 0, false},
	}
	for _, c := range cases {
		if got := c.v.grants(c.req, c.voted); got != c.want {
			t.Errorf("%s: grants = %v, want %v", c.name, got, c.want)
		}
	}
}

type standCase struct {
	name   string
	self   Candidate
	others []Candidate
	want   bool
}

func at(id string, epoch, seq uint64, off int64) Candidate {
	return Candidate{ID: id, Epoch: epoch, Cursor: oltp.WALCursor{Seq: seq, Off: off}}
}

func checkStands(t *testing.T, cases []standCase) {
	t.Helper()
	for _, c := range cases {
		if got := Stands(c.self, c.others); got != c.want {
			t.Errorf("%s: Stands = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestElectionCandidateOrderPicksBestFollower pins the stand rule among
// followers of one epoch: only the one with the furthest replication
// cursor stands, and a tie goes to the lowest id.
func TestElectionCandidateOrderPicksBestFollower(t *testing.T) {
	checkStands(t, []standCase{
		{"furthest cursor stands", at("c", 1, 3, 0), []Candidate{at("a", 1, 2, 900), at("b", 1, 3, 0)}, false},
		{"furthest cursor stands (winner)", at("b", 1, 3, 10), []Candidate{at("a", 1, 2, 900), at("c", 1, 3, 0)}, true},
		{"tie goes to the lowest id", at("a", 1, 3, 0), []Candidate{at("b", 1, 3, 0)}, true},
		{"tie loses to a lower id", at("b", 1, 3, 0), []Candidate{at("a", 1, 3, 0)}, false},
		{"alone stands", at("z", 1, 0, 0), nil, true},
		{"own status in the list is ignored", at("a", 1, 3, 0), []Candidate{at("a", 1, 3, 0)}, true},
	})
}

// TestElectionCandidateOrderEpochBeatsCursor: the followed epoch ranks
// before the cursor, since cursors into different epochs' logs do not
// compare.
func TestElectionCandidateOrderEpochBeatsCursor(t *testing.T) {
	checkStands(t, []standCase{
		{"higher epoch beats further cursor", at("a", 1, 9, 0), []Candidate{at("b", 2, 1, 0)}, false},
		{"higher epoch stands over further cursors", at("b", 2, 1, 0), []Candidate{at("a", 1, 9, 0), at("c", 1, 8, 0)}, true},
	})
}

// TestElectionNeedsStrictMajority: a candidate needs more than half of
// the whole cluster, itself included, so a node cut off with a minority
// (or exactly half) of the cluster can never promote.
func TestElectionNeedsStrictMajority(t *testing.T) {
	cases := []struct {
		votes, nodes int
		want         bool
	}{
		{1, 1, true}, {1, 2, false}, {2, 2, true},
		{1, 3, false}, {2, 3, true},
		{2, 4, false}, {3, 4, true},
		{2, 5, false}, {3, 5, true},
	}
	for _, c := range cases {
		if got := Elected(c.votes, c.nodes); got != c.want {
			t.Errorf("Elected(%d of %d) = %v, want %v", c.votes, c.nodes, got, c.want)
		}
	}
}

// TestBallotNeverGrantsAnEpochTwice: the vote is on disk before it is
// granted, so a voter restarted after granting epoch E refuses E to
// every candidate, the first one included, and still grants E+1.
func TestBallotNeverGrantsAnEpochTwice(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBallot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := b.Grant(silentVoter, voteFor(2, "b")); err != nil || !r.Granted {
		t.Fatalf("first vote for epoch 2: %+v, %v", r, err)
	}
	if r, _ := b.Grant(silentVoter, voteFor(2, "c")); r.Granted {
		t.Fatal("granted epoch 2 twice in one process")
	}

	restarted, err := OpenBallot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := restarted.Voted(); got != 2 {
		t.Fatalf("restarted ballot voted = %d, want 2", got)
	}
	for _, id := range []string{"c", "b"} {
		if r, _ := restarted.Grant(silentVoter, voteFor(2, id)); r.Granted {
			t.Fatalf("restarted voter granted epoch 2 again, to %s", id)
		}
	}
	if r, err := restarted.Grant(silentVoter, voteFor(3, "c")); err != nil || !r.Granted {
		t.Fatalf("vote for epoch 3 after restart: %+v, %v", r, err)
	}
	// Standing counts as a vote: the next epoch is above all of them.
	if e, err := restarted.Stand(1); err != nil || e != 4 {
		t.Fatalf("Stand after voting 3 = %d, %v; want 4", e, err)
	}
	if r, _ := restarted.Grant(silentVoter, voteFor(4, "c")); r.Granted {
		t.Fatal("granted a rival the epoch this node stood for")
	}
	// Neither the vote nor the candidacy is an epoch anyone led.
	if e, err := knownEpoch(faultfs.OS{}, dir); err != nil || e != 0 {
		t.Fatalf("knownEpoch after voting = %d, %v; want 0", e, err)
	}
}

// TestLostCandidateStandsAboveReportedEpoch: a refusal reports the
// highest epoch the voter has voted for or knows, and the candidate's
// next Stand starts above it rather than climbing one lost round at a
// time.
func TestLostCandidateStandsAboveReportedEpoch(t *testing.T) {
	voter, _ := OpenBallot("")
	if _, err := voter.Grant(silentVoter, voteFor(37, "x")); err != nil {
		t.Fatal(err)
	}
	candidate, _ := OpenBallot("")
	e, _ := candidate.Stand(1)
	r, _ := voter.Grant(silentVoter, voteFor(e, "b"))
	if r.Granted || r.Epoch != 37 {
		t.Fatalf("refusal = %+v, want not granted and epoch 37", r)
	}
	rejoining := Voter{Rejoining: true, Epoch: 40}
	r, _ = candidate.Grant(rejoining, voteFor(3, "c"))
	if r.Granted || r.Epoch != 40 {
		t.Fatalf("rejoining refusal = %+v, want not granted and epoch 40, the epoch it has seen", r)
	}
	candidate.Saw(VoteReply{Epoch: 37})
	if e, _ := candidate.Stand(1); e != 38 {
		t.Fatalf("next Stand = %d, want 38", e)
	}
	if r, _ := voter.Grant(silentVoter, voteFor(38, "b")); !r.Granted || r.Epoch != 38 {
		t.Fatalf("vote at 38 = %+v, want granted", r)
	}
}

// The vote record is the election's durable anchor: a voter that
// crashes mid-save and restarts must find the vote it had before or the
// new one, never garbage and never a lower epoch, or it could vote in
// one epoch twice. These sweeps crash the ballot's save at every
// injection point, torn writes included.
func TestVoteSaveCrashSweepNeverRegresses(t *testing.T) {
	counter := faultfs.NewFault(faultfs.OS{})
	if _, err := (&Ballot{fs: counter, dir: t.TempDir(), voted: 5}).Grant(silentVoter, voteFor(6, "b")); err != nil {
		t.Fatalf("counting save: %v", err)
	}
	total := counter.Ops()
	if total < 5 {
		t.Fatalf("save spans %d ops, expected at least create/write/sync/close/rename", total)
	}

	for n := 1; n <= total; n++ {
		for _, frac := range []float64{0, 0.5, 1} {
			dir := t.TempDir()
			seed, err := OpenBallot(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := seed.Stand(4); err != nil { // votes for itself at 5
				t.Fatalf("seeding vote: %v", err)
			}
			b := &Ballot{fs: faultfs.NewFault(faultfs.OS{}).CrashAt(n, frac), dir: dir, voted: 5}
			r, err := b.Grant(silentVoter, voteFor(6, "b"))
			if err == nil || r.Granted {
				t.Fatalf("crash at op %d frac %.1f: vote granted despite the failed save (%+v, %v)", n, frac, r, err)
			}
			if b.Voted() != 5 {
				t.Fatalf("crash at op %d frac %.1f: in-memory vote moved to %d without a durable record", n, frac, b.Voted())
			}
			reopened, err := OpenBallot(dir)
			if err != nil {
				t.Fatalf("crash at op %d frac %.1f: reload errored: %v", n, frac, err)
			}
			if v := reopened.Voted(); v != 5 && v != 6 {
				t.Fatalf("crash at op %d frac %.1f: reloaded vote %d, want 5 or 6", n, frac, v)
			}
			if r, _ := reopened.Grant(silentVoter, voteFor(5, "c")); r.Granted {
				t.Fatalf("crash at op %d frac %.1f: epoch 5 granted again after restart", n, frac)
			}
		}
	}
}

func TestVoteFirstSaveCrashSweepTornReadsAsAbsent(t *testing.T) {
	counter := faultfs.NewFault(faultfs.OS{})
	if _, err := (&Ballot{fs: counter, dir: t.TempDir()}).Stand(2); err != nil {
		t.Fatalf("counting save: %v", err)
	}
	total := counter.Ops()

	for n := 1; n <= total; n++ {
		for _, frac := range []float64{0, 0.5} {
			dir := t.TempDir()
			b := &Ballot{fs: faultfs.NewFault(faultfs.OS{}).CrashAt(n, frac), dir: dir}
			if _, err := b.Stand(2); err == nil {
				t.Fatalf("first-save crash at op %d frac %.1f: save unexpectedly succeeded", n, frac)
			}
			// A torn very first save reads as "never voted" so the node
			// still boots — never as an error, never as garbage.
			reopened, err := OpenBallot(dir)
			if err != nil {
				t.Fatalf("first-save crash at op %d frac %.1f: reload errored: %v", n, frac, err)
			}
			if v := reopened.Voted(); v != 0 && v != 3 {
				t.Fatalf("first-save crash at op %d frac %.1f: loaded garbage vote %d", n, frac, v)
			}
		}
	}
}

// TestVoterRehomingToWinnerGetsSnapshot pins that a vote feeds neither
// the voter's known epoch nor its hello: a voter that granted epoch 3 —
// the candidate lost a round at 2 first, so it wins and leads exactly
// 3 — still says epoch 1 when it re-homes to the winner, after a
// restart too, so the winner forces a snapshot bootstrap instead of
// resuming it from a cursor into the old primary's WAL.
func TestVoterRehomingToWinnerGetsSnapshot(t *testing.T) {
	psA := openStore(t, t.TempDir(), smallSegs())
	commitN(t, psA, 20, 0)
	pA := startPrimary(t, psA, 1000)

	dirB, dirC := t.TempDir(), t.TempDir()
	fsB := openStore(t, t.TempDir(), smallSegs())
	fB := startFollower(t, followerConfig(fsB, dirB, pA.Addr(), "b"))
	fsC := openStore(t, t.TempDir(), smallSegs())
	fC := startFollower(t, followerConfig(fsC, dirC, pA.Addr(), "c"))
	waitReady(t, fB)
	waitReady(t, fC)
	commitN(t, psA, 10, 100)
	waitConverged(t, psA, fB)
	waitConverged(t, psA, fC)
	pA.Close() // the primary dies

	ballotC, err := OpenBallot(dirC)
	if err != nil {
		t.Fatal(err)
	}
	req := VoteRequest{Epoch: 3, ID: "b", Follows: fB.Epoch(), Cursor: *fB.Status().Cursor}
	voter := Voter{Follower: true, Silent: true, Epoch: fC.Epoch(), Cursor: *fC.Status().Cursor}
	if r, err := ballotC.Grant(voter, req); err != nil || !r.Granted {
		t.Fatalf("c's vote for b at epoch 3: %+v, %v", r, err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pB, err := Promote(PromoteConfig{Follower: fB, Listener: ln, Epoch: 3, HeartbeatEvery: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("Promote at the won epoch: %v", err)
	}
	t.Cleanup(func() { pB.Close() })
	if pB.Status().Epoch != 3 {
		t.Fatalf("winner leads epoch %d, want exactly the won 3", pB.Status().Epoch)
	}
	commitN(t, fsB, 5, 1000)

	// The voter restarts with its vote on disk, then re-homes.
	fC.Close()
	if e, err := knownEpoch(faultfs.OS{}, dirC); err != nil || e != 1 {
		t.Fatalf("voter's known epoch = %d, %v; the vote must not raise it above 1", e, err)
	}
	fC2 := startFollower(t, followerConfig(fsC, dirC, pB.Addr(), "c"))
	if e := fC2.Epoch(); e != 1 {
		t.Fatalf("restarted voter says hello at epoch %d, want 1", e)
	}
	waitSameState(t, fsB, fsC)
	waitFollowerEpoch(t, fC2, 3, pB.Addr())
	if st := fC2.Status(); st.Resyncs != 1 {
		t.Fatalf("voter re-homed with %d snapshot bootstraps, want 1 (a resumed old-timeline cursor is the bug)", st.Resyncs)
	}

	// Promote refuses an epoch the follower is already past.
	lnD, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnD.Close()
	fC2.Close()
	if _, err := Promote(PromoteConfig{Follower: fC2, Listener: lnD, Epoch: 2}); err == nil {
		t.Fatal("promoted a follower of epoch 3 to lead epoch 2")
	}
}
