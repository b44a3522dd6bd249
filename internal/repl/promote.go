package repl

import (
	"errors"
	"fmt"
	"log"
	"net"
	"time"
)

// PromoteConfig configures a follower-to-primary promotion.
type PromoteConfig struct {
	// Follower is the node being promoted. It is stopped first; its
	// store, cursor dir and filesystem carry over to the new primary.
	Follower *Follower
	// Listener accepts re-homing followers; the new primary owns it.
	Listener net.Listener
	// Epoch is the epoch to lead: an election's winner leads exactly the
	// epoch it won. Zero means the follower's epoch plus one; otherwise it
	// must be above the follower's epoch.
	Epoch uint64
	// OnFenced and the tuning fields below configure the new primary;
	// see PrimaryConfig. Zero values take PrimaryConfig defaults.
	OnFenced          func(higherEpoch uint64)
	MaxLagSegments    uint64
	HeartbeatEvery    time.Duration
	WriteTimeout      time.Duration
	HandshakeTimeout  time.Duration
	SnapshotChunkRows int
	BatchTx           int
	Log               *log.Logger
}

// Promote turns a follower into the primary of epoch n+1 (or of
// cfg.Epoch).
//
// The sequence is: stop the replication session; verify the local WAL
// tail end to end (every retained record re-read and checksummed — a
// store we cannot prove intact must not lead); leave replica mode so
// local commits are accepted again; start a primary on the listener at
// the follower's epoch plus one, persisting the new epoch in the same
// directory as the replication cursor. Any failure before the replica
// flag is dropped leaves the node a consistent (stopped) follower;
// failure starting the listener re-enters replica mode so Promote can
// be retried cleanly — re-promotion is idempotent in effect because the
// epoch bump only becomes durable once the primary is up.
//
// Surviving followers do not find the new primary on their own: the
// caller (or an operator, or the routing front's /cluster view) points
// them at it with Rehome. Their old-timeline cursors are handled by the
// epoch rules — the new primary forces a snapshot bootstrap for any
// hello from a lower epoch.
func Promote(cfg PromoteConfig) (*Primary, error) {
	f := cfg.Follower
	if f == nil || cfg.Listener == nil {
		return nil, errors.New("repl: promote needs a follower and a listener")
	}
	f.Close()
	epoch := f.Epoch() + 1
	if cfg.Epoch != 0 {
		if cfg.Epoch < epoch {
			return nil, fmt.Errorf("repl: promote to epoch %d refused, follower already at %d", cfg.Epoch, f.Epoch())
		}
		epoch = cfg.Epoch
	}
	store := f.cfg.Store
	if err := store.Healthy(); err != nil {
		return nil, fmt.Errorf("repl: promote refused, store unhealthy: %w", err)
	}
	if _, err := store.VerifyWALTail(); err != nil {
		return nil, fmt.Errorf("repl: promote refused, WAL tail verification failed: %w", err)
	}
	store.SetReplica(false)
	p, err := StartPrimary(PrimaryConfig{
		Store:             store,
		Listener:          cfg.Listener,
		Epoch:             epoch,
		Dir:               f.cfg.Dir,
		FS:                f.fs,
		OnFenced:          cfg.OnFenced,
		MaxLagSegments:    cfg.MaxLagSegments,
		HeartbeatEvery:    cfg.HeartbeatEvery,
		WriteTimeout:      cfg.WriteTimeout,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		SnapshotChunkRows: cfg.SnapshotChunkRows,
		BatchTx:           cfg.BatchTx,
		Log:               cfg.Log,
	})
	if err != nil {
		store.SetReplica(true)
		return nil, err
	}
	if cfg.Log != nil {
		cfg.Log.Printf("repl: promoted follower %q to primary at epoch %d on %s", f.cfg.ID, epoch, p.Addr())
	}
	return p, nil
}
