package repl

import (
	"sort"

	"github.com/ddgms/ddgms/internal/oltp"
)

// FollowerInfo is one follower's health as seen by the primary.
type FollowerInfo struct {
	ID        string `json:"id"`
	Connected bool   `json:"connected"`
	// State is streaming, snapshotting, disconnected or evicted.
	State       string         `json:"state"`
	AckedLSN    oltp.WALCursor `json:"acked_lsn"`
	StreamedLSN oltp.WALCursor `json:"streamed_lsn"`
	// LagSegments is how many WAL segments the follower's applied
	// position trails the primary's durable tail.
	LagSegments     uint64  `json:"lag_segments"`
	SecondsSinceAck float64 `json:"seconds_since_ack,omitempty"`
	Resyncs         uint64  `json:"resyncs"`
	Evicted         bool    `json:"evicted"`
}

// Status is the /replication endpoint's body for either role.
type Status struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Epoch is the node's replication epoch (fencing term). It is
	// monotonic across promotions: each Promote leads epoch+1, and any
	// node seeing a higher epoch on the wire knows its own timeline is
	// stale.
	Epoch uint64 `json:"epoch"`
	// Primary is the current primary's replication address as this node
	// knows it: its own listener address on a primary, the address being
	// followed on a follower. Routers and operators resolve the cluster
	// head by taking the highest-epoch non-fenced claimant.
	Primary string `json:"primary,omitempty"`

	// Primary-side fields.
	Addr       string          `json:"addr,omitempty"`
	DurableLSN *oltp.WALCursor `json:"durable_lsn,omitempty"`
	Followers  []FollowerInfo  `json:"followers,omitempty"`
	// Fenced is set on an ex-primary that observed a higher epoch: it
	// has stopped streaming, refuses every replication session, and must
	// be demoted (core does this via the OnFenced hook).
	Fenced bool `json:"fenced,omitempty"`

	// Follower-side fields.
	ID string `json:"id,omitempty"`
	// State is connecting, snapshotting, streaming or backoff.
	State     string          `json:"state,omitempty"`
	Connected bool            `json:"connected,omitempty"`
	Cursor    *oltp.WALCursor `json:"cursor,omitempty"`
	// SecondsSinceFrame is the staleness signal: time since the last
	// verified frame arrived (or since the follower started, before the
	// first one).
	SecondsSinceFrame float64 `json:"seconds_since_frame,omitempty"`
	Resyncs           uint64  `json:"resyncs,omitempty"`
	Reconnects        uint64  `json:"reconnects,omitempty"`
}

func sortFollowers(fs []FollowerInfo) {
	sort.Slice(fs, func(a, b int) bool { return fs[a].ID < fs[b].ID })
}
