package repl

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ddgms/ddgms/internal/oltp"
)

// The election simulation drives the stand and grant rules and the
// Ballot (vote.go) over model clusters of 3, 4 and 5 nodes on a
// discrete clock: one tick is one watchdog round on every live node, in
// a seeded order. The model mirrors core's watchdog — feed, discovery,
// demotion, rejoin, stand — with a counter for a log. Seeded chaos
// kills and restarts nodes (a restart keeps the durable epoch, cursor,
// role and vote, and loses everything else), partitions and heals the
// network, kills candidates mid-vote and between winning and promoting,
// and loses vote replies. Every tick asserts that no epoch has two
// winners and no two nodes ever lead one epoch; after healing, the
// cluster must converge to exactly one primary at the max epoch with
// every live node following it.
//
// The literal rules first written for this design failed it, each
// fixed in core and here: a primary that only demoted on seeing a
// higher-epoch primary, and a rejoining ex-primary that never voted,
// deadlocked when the newer leader died (3 nodes, seed 2); a follower
// that re-homed to a leader which died before its snapshot never went
// back to the live primary of its own epoch (seed 33); a voter that
// granted only candidates of its own epoch let a straggler block the
// successor (seed 40); and a candidate climbing one epoch per lost
// round took hundreds of ticks to pass voters' ballots (4 nodes, under
// a 40% fault rate with three-way partitions), hence VoteReply.Epoch.

const (
	simRehomeAfter = 3 // ticks of silence before a follower acts
	simBackoffMax  = 8 // ticks
	simChaosTicks  = 200
	simHealTicks   = 300
	simSeeds       = 2000
)

type simRole int

const (
	simFollower simRole = iota
	simPrimary
	simRejoin // a superseded primary waiting for a successor to follow
)

type simNode struct {
	// Durable.
	role     simRole
	epoch    uint64 // the epoch led (primary, rejoin) or followed
	cursor   int64  // position in that epoch's log
	ballot   *Ballot
	rejoinAt uint64 // rejoin: the highest epoch seen, which a successor must lead
	follows  int    // the node a follower dials

	// Volatile.
	alive     bool
	silent    int // ticks since the last frame
	nextStand int
	backoff   int
}

type simCluster struct {
	t     *testing.T
	rng   *rand.Rand
	nodes []*simNode
	side  []int // partition side per node
	tick  int
	chaos bool
	// leaders records, per epoch, the node that won it (or led it
	// initially).
	leaders map[uint64]int
}

func newSimCluster(t *testing.T, seed int64, n int) *simCluster {
	c := &simCluster{t: t, rng: rand.New(rand.NewSource(seed)), side: make([]int, n), leaders: map[uint64]int{1: 0}}
	for i := 0; i < n; i++ {
		b, err := OpenBallot("")
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, &simNode{role: simFollower, epoch: 1, ballot: b, alive: true, backoff: 1})
	}
	c.nodes[0].role = simPrimary
	return c
}

func simID(i int) string { return fmt.Sprintf("n%d", i) }

func (c *simCluster) reach(i, j int) bool {
	return c.nodes[i].alive && c.nodes[j].alive && c.side[i] == c.side[j]
}

func (c *simCluster) candidate(i int) Candidate {
	n := c.nodes[i]
	return Candidate{ID: simID(i), Epoch: n.epoch, Cursor: oltp.WALCursor{Seq: 1, Off: n.cursor}}
}

// voter is what node j's Platform.Vote hands its ballot.
func (c *simCluster) voter(j int) Voter {
	n := c.nodes[j]
	switch n.role {
	case simFollower:
		return Voter{Follower: true, Silent: n.silent >= simRehomeAfter, Epoch: n.epoch, Cursor: c.candidate(j).Cursor}
	case simRejoin:
		return Voter{Rejoining: true, Epoch: n.rejoinAt}
	default:
		return Voter{}
	}
}

// successor is discovery: the highest-epoch reachable primary leading
// at least min, or -1.
func (c *simCluster) successor(i int, min uint64) int {
	best := -1
	for j, m := range c.nodes {
		if j != i && c.reach(i, j) && m.role == simPrimary && m.epoch >= min &&
			(best < 0 || m.epoch > c.nodes[best].epoch) {
			best = j
		}
	}
	return best
}

// highestSeen is the highest epoch any reachable peer with a role
// reports, follower or primary.
func (c *simCluster) highestSeen(i int) uint64 {
	var seen uint64
	for j, m := range c.nodes {
		if j != i && c.reach(i, j) && m.role != simRejoin {
			seen = max(seen, m.epoch)
		}
	}
	return seen
}

func (c *simCluster) step(i int) {
	n := c.nodes[i]
	switch n.role {
	case simPrimary:
		if seen := c.highestSeen(i); seen > n.epoch {
			n.role, n.rejoinAt = simRejoin, seen
			return
		}
		n.cursor += int64(c.rng.Intn(3)) // commits
	case simRejoin:
		if s := c.successor(i, n.rejoinAt); s >= 0 {
			n.role, n.follows, n.silent = simFollower, s, 0
		}
	case simFollower:
		c.feed(i)
		if n.silent < simRehomeAfter {
			n.backoff, n.nextStand = 1, 0
			return
		}
		if s := c.successor(i, n.epoch); s >= 0 {
			n.follows = s
			return
		}
		if c.tick >= n.nextStand && c.stand(i) {
			n.nextStand = c.tick + n.backoff + c.rng.Intn(n.backoff/2+1)
			n.backoff = min(2*n.backoff, simBackoffMax)
		}
	}
}

// feed is one replication session round: stream or snapshot from the
// followed primary, or fence it on the wire when it leads an older
// epoch than ours.
func (c *simCluster) feed(i int) {
	n := c.nodes[i]
	if p := n.follows; c.reach(i, p) && c.nodes[p].role == simPrimary {
		pn := c.nodes[p]
		if pn.epoch < n.epoch {
			pn.role, pn.rejoinAt = simRejoin, n.epoch
		} else {
			if pn.epoch == n.epoch && n.cursor > pn.cursor {
				c.t.Fatalf("tick %d: %s is ahead of %s, the leader of its epoch %d", c.tick, simID(i), simID(p), n.epoch)
			}
			n.epoch, n.cursor, n.silent = pn.epoch, pn.cursor, 0
			return
		}
	}
	n.silent++
}

// stand is core's stand: one election round. It reports whether an
// election was held and lost.
func (c *simCluster) stand(i int) (lost bool) {
	n := c.nodes[i]
	var rivals []Candidate
	for j, m := range c.nodes {
		if j != i && c.reach(i, j) && m.role == simFollower {
			rivals = append(rivals, c.candidate(j))
		}
	}
	if !Stands(c.candidate(i), rivals) {
		return false
	}
	epoch, err := n.ballot.Stand(n.epoch)
	if err != nil {
		c.t.Fatal(err)
	}
	req := VoteRequest{Epoch: epoch, ID: simID(i), Follows: n.epoch, Cursor: c.candidate(i).Cursor}
	votes := 1
	for j := range c.nodes {
		if Elected(votes, len(c.nodes)) {
			break
		}
		if j == i || !c.reach(i, j) {
			continue
		}
		reply, err := c.nodes[j].ballot.Grant(c.voter(j), req)
		if err != nil {
			c.t.Fatal(err)
		}
		if c.chaos && c.rng.Intn(20) == 0 {
			n.alive = false // the candidate dies mid-vote
			return false
		}
		if c.chaos && c.rng.Intn(10) == 0 {
			continue // the reply is lost
		}
		n.ballot.Saw(reply)
		if reply.Granted {
			votes++
		}
	}
	if !Elected(votes, len(c.nodes)) || n.ballot.Voted() != epoch {
		return true
	}
	if w, ok := c.leaders[epoch]; ok {
		c.t.Fatalf("tick %d: epoch %d won by %s, already won by %s", c.tick, epoch, simID(i), simID(w))
	}
	c.leaders[epoch] = i
	if c.chaos && c.rng.Intn(10) == 0 {
		n.alive = false // dies between winning and promoting
		return false
	}
	n.role, n.epoch = simPrimary, epoch
	return false
}

func (c *simCluster) restart(i int) {
	n := c.nodes[i]
	n.alive, n.silent, n.nextStand, n.backoff = true, 0, 0, 1
	if n.role == simRejoin {
		n.role = simPrimary // it comes back leading the epoch it last led
	}
}

// chaosEvent injects at most one fault.
func (c *simCluster) chaosEvent() {
	if c.rng.Intn(100) >= 15 {
		return
	}
	i := c.rng.Intn(len(c.nodes))
	switch c.rng.Intn(4) {
	case 0:
		c.nodes[i].alive = false
	case 1:
		if !c.nodes[i].alive {
			c.restart(i)
		}
	case 2:
		for j := range c.side {
			c.side[j] = c.rng.Intn(2)
		}
	case 3:
		clear(c.side)
	}
}

func (c *simCluster) round() {
	for _, i := range c.rng.Perm(len(c.nodes)) {
		if c.nodes[i].alive {
			c.step(i)
		}
	}
	for i, n := range c.nodes {
		if n.role == simPrimary {
			if w := c.leaders[n.epoch]; w != i {
				c.t.Fatalf("tick %d: %s leads epoch %d, which %s won", c.tick, simID(i), n.epoch, simID(w))
			}
		}
	}
	c.tick++
}

// converged reports "" when exactly one live node is primary, at the
// max epoch of the live nodes, with every other live node streaming
// from it; otherwise what is wrong.
func (c *simCluster) converged() string {
	leader := -1
	var maxEpoch uint64
	for i, n := range c.nodes {
		if !n.alive {
			continue
		}
		maxEpoch = max(maxEpoch, n.epoch)
		if n.role == simPrimary {
			if leader >= 0 {
				return fmt.Sprintf("two live primaries %s and %s", simID(leader), simID(i))
			}
			leader = i
		}
	}
	if leader < 0 {
		return "no live primary"
	}
	if e := c.nodes[leader].epoch; e != maxEpoch {
		return fmt.Sprintf("primary %s leads epoch %d below the max %d", simID(leader), e, maxEpoch)
	}
	for i, n := range c.nodes {
		if n.alive && i != leader && (n.role != simFollower || n.follows != leader || n.epoch != maxEpoch || n.silent != 0) {
			return fmt.Sprintf("%s (role %d, epoch %d, silent %d) does not stream from %s", simID(i), n.role, n.epoch, n.silent, simID(leader))
		}
	}
	return ""
}

func (c *simCluster) state() string {
	s := ""
	for i, n := range c.nodes {
		s += fmt.Sprintf("\n  %s alive=%v role=%d epoch=%d cursor=%d voted=%d follows=%s silent=%d side=%d",
			simID(i), n.alive, n.role, n.epoch, n.cursor, n.ballot.Voted(), simID(n.follows), n.silent, c.side[i])
	}
	return s
}

// simulate runs one seed: chaos, then healing — every partition healed
// and every node restarted, except that half the seeds also kill the
// max-epoch primary for good so healing needs an election.
func simulate(t *testing.T, seed int64, n int) {
	c := newSimCluster(t, seed, n)
	c.chaos = true
	for c.tick < simChaosTicks {
		c.chaosEvent()
		c.round()
	}
	c.chaos = false
	clear(c.side)
	for i, m := range c.nodes {
		if !m.alive {
			c.restart(i)
		}
	}
	if c.rng.Intn(2) == 0 {
		top := -1
		for i, m := range c.nodes {
			if m.role == simPrimary && (top < 0 || m.epoch > c.nodes[top].epoch) {
				top = i
			}
		}
		if top >= 0 {
			c.nodes[top].alive = false
		}
	}
	for c.tick < simChaosTicks+simHealTicks {
		c.round()
	}
	if why := c.converged(); why != "" {
		t.Fatalf("seed %d, %d nodes: not converged after healing: %s%s", seed, n, why, c.state())
	}
}

func TestElectionSimulation(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		for seed := int64(1); seed <= simSeeds; seed++ {
			simulate(t, seed, n)
		}
	}
}

// TestCandidateDyingMidVoteGivesWayToSuccessor: the best candidate dies
// holding one granted vote for epoch 2 and its own; the next-best
// follower stands at a higher epoch, wins a majority of five, and the
// dead candidate, back, follows the successor without ever having led.
func TestCandidateDyingMidVoteGivesWayToSuccessor(t *testing.T) {
	c := newSimCluster(t, 1, 5)
	for i, cur := range []int64{10, 10, 9, 8, 7} {
		c.nodes[i].cursor = cur
	}
	c.nodes[0].alive = false // the primary dies
	for c.nodes[1].silent < simRehomeAfter {
		for i := 1; i < 5; i++ {
			c.feed(i)
		}
	}

	epoch, err := c.nodes[1].ballot.Stand(1)
	if err != nil || epoch != 2 {
		t.Fatalf("n1 stands at %d, %v; want 2", epoch, err)
	}
	req := VoteRequest{Epoch: 2, ID: "n1", Follows: 1, Cursor: c.candidate(1).Cursor}
	if r, _ := c.nodes[2].ballot.Grant(c.voter(2), req); !r.Granted {
		t.Fatal("n2 refused the best candidate")
	}
	c.nodes[1].alive = false // dies before asking anyone else

	for i := 0; i < 50 && c.converged() != ""; i++ {
		c.round()
	}
	if w, ok := c.leaders[2]; ok {
		t.Fatalf("epoch 2 won by %s after its candidate died", simID(w))
	}
	if w, ok := c.leaders[3]; !ok || w != 2 {
		t.Fatalf("epoch 3 leader = %v (ok %v), want n2, the best live follower", w, ok)
	}
	c.restart(1)
	for i := 0; i < 50; i++ {
		c.round()
	}
	if why := c.converged(); why != "" || c.nodes[1].follows != 2 || c.nodes[1].role != simFollower {
		t.Fatalf("returned candidate did not follow the successor: %s%s", why, c.state())
	}
}
