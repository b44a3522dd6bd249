package repl

import (
	"fmt"
	"sync"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/oltp"
)

// Node-side election. A follower whose feed has been silent for the
// watchdog's RehomeAfter, that finds no primary at its epoch or above
// among its peers, and that no reachable follower outranks, stands: it
// votes for itself at E = max(followed epoch, highest epoch voted for
// or reported in a refusal) + 1, asks every peer for a vote
// (POST /replication/vote), and with a strict majority of the cluster
// (its peers plus itself) promotes at exactly E. Every node votes at
// most once per epoch — the vote record below is durable and only
// grows — so no epoch can have two winners.
//
// The rules are pure functions of node state so a simulation can drive
// them over model clusters; the Ballot is their only durable state. It
// lives in its own file on purpose: an epoch voted for is not an epoch
// anyone led, so it must feed neither knownEpoch nor the hello epoch.
// If it did, a voter would fence a live old primary after a failed
// election, and the winner would resume the voter from a cursor into
// the old primary's WAL instead of forcing a snapshot bootstrap.
const (
	voteMagic = "DDGRVOT1"
	voteFile  = "repl.vote"
)

// VoteRequest is the POST /replication/vote body: candidate ID, which
// follows epoch Follows and has durably applied up to Cursor, asks for
// a vote to lead Epoch.
type VoteRequest struct {
	Epoch   uint64         `json:"epoch"`
	ID      string         `json:"id"`
	Follows uint64         `json:"follows"`
	Cursor  oltp.WALCursor `json:"cursor"`
}

// VoteReply answers a VoteRequest. Epoch is the highest epoch the voter
// has voted for or knows: a candidate that lost stands above it next.
type VoteReply struct {
	Granted bool   `json:"granted"`
	Epoch   uint64 `json:"epoch"`
}

// Candidate is one follower as the stand rule ranks it.
type Candidate struct {
	ID     string
	Epoch  uint64
	Cursor oltp.WALCursor
}

// outranks orders candidates: higher followed epoch, then further
// replication cursor, then lower id.
func (c Candidate) outranks(o Candidate) bool {
	if c.Epoch != o.Epoch {
		return c.Epoch > o.Epoch
	}
	if c.Cursor != o.Cursor {
		return o.Cursor.Less(c.Cursor)
	}
	return c.ID < o.ID
}

// Stands reports whether self should stand for election: no reachable
// follower outranks it.
func Stands(self Candidate, followers []Candidate) bool {
	for _, f := range followers {
		if f.ID != self.ID && f.outranks(self) {
			return false
		}
	}
	return true
}

// Elected reports whether votes are a strict majority of a cluster of
// nodes.
func Elected(votes, nodes int) bool { return 2*votes > nodes }

// Voter is what the grant rule reads of the node asked for a vote.
// Primaries never vote.
type Voter struct {
	// Follower is set on a follower. Silent is set once its own feed has
	// been down for at least RehomeAfter: a node still hearing its
	// primary never votes it out. Epoch and Cursor are the epoch it
	// follows and its durable replication cursor into that epoch's log.
	Follower bool
	Silent   bool
	Epoch    uint64
	Cursor   oltp.WALCursor
	// Rejoining is set instead on a superseded primary waiting for a
	// successor to follow. Epoch is then the highest epoch it has seen;
	// it holds no log a candidate must match, and it cannot stand, so it
	// must not block whoever can.
	Rejoining bool
}

// grants is the grant rule: req leads an epoch above every epoch the
// voter has voted for or knows, and the voter is rejoining, or is a
// silent follower the candidate is at least as far along as — the
// candidate follows the same epoch with at least as much of its log
// applied, or a later epoch (a straggler that has not re-homed yet
// must not block the successor).
func (v Voter) grants(req VoteRequest, voted uint64) bool {
	if req.Epoch <= voted || req.Epoch <= v.Epoch {
		return false
	}
	return v.Rejoining || v.Follower && v.Silent &&
		(req.Follows > v.Epoch || req.Follows == v.Epoch && !req.Cursor.Less(v.Cursor))
}

// Ballot is a node's durable vote record: the highest epoch it has
// voted for, itself included. Every vote is on disk before anyone
// hears of it, so a restarted node never votes twice in one epoch.
type Ballot struct {
	fs  faultfs.FS
	dir string

	mu    sync.Mutex
	voted uint64
	// seen is the highest epoch peers' replies reported; only a hint
	// for the next Stand, so a restart may forget it.
	seen uint64
}

// OpenBallot loads the vote record under dir; an empty dir keeps it in
// memory only.
func OpenBallot(dir string) (*Ballot, error) {
	b := &Ballot{fs: faultfs.OS{}, dir: dir}
	if dir == "" {
		return b, nil
	}
	if err := b.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("repl: creating vote dir: %w", err)
	}
	voted, _, err := loadTerm(b.fs, dir, voteFile, voteMagic)
	if err != nil {
		return nil, err
	}
	b.voted = voted
	return b, nil
}

// Voted is the highest epoch this node has voted for.
func (b *Ballot) Voted() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.voted
}

// Grant applies the grant rule to req as voter v would see it and, when
// it holds, records the vote durably before granting.
func (b *Ballot) Grant(v Voter, req VoteRequest) (VoteReply, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !v.grants(req, b.voted) {
		return VoteReply{Epoch: max(b.voted, v.Epoch)}, nil
	}
	if err := b.cast(req.Epoch); err != nil {
		return VoteReply{}, err
	}
	return VoteReply{Granted: true, Epoch: req.Epoch}, nil
}

// Saw records the epoch a peer's reply reported, so the next Stand
// starts above it instead of climbing one lost round at a time.
func (b *Ballot) Saw(reply VoteReply) {
	b.mu.Lock()
	b.seen = max(b.seen, reply.Epoch)
	b.mu.Unlock()
}

// Stand durably votes for this node at the next epoch above the one it
// follows, every epoch it has voted for, and every epoch peers' replies
// reported, and returns it.
func (b *Ballot) Stand(follows uint64) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	epoch := max(follows, b.voted, b.seen) + 1
	if err := b.cast(epoch); err != nil {
		return 0, err
	}
	return epoch, nil
}

func (b *Ballot) cast(epoch uint64) error {
	if b.dir != "" {
		if err := saveTerm(b.fs, b.dir, voteFile, voteMagic, epoch); err != nil {
			return err
		}
	}
	b.voted = epoch
	return nil
}
