package repl

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/faultfs"
	"github.com/ddgms/ddgms/internal/faultnet"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/storage"
	"github.com/ddgms/ddgms/internal/value"
)

// End-to-end replication tests over real loopback TCP. The contract:
// whatever faults the wire or the follower process suffers, the
// follower's store reconverges to byte-for-byte the primary's state,
// and the primary's disk stays bounded.

func testSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "PatientID", Kind: value.IntKind},
		storage.Field{Name: "FBG", Kind: value.FloatKind},
		storage.Field{Name: "Gender", Kind: value.StringKind},
	)
}

func row(id int64, fbg float64, gender string) oltp.Row {
	return oltp.Row{value.Int(id), value.Float(fbg), value.Str(gender)}
}

// smallSegs rotates aggressively so retention/eviction mechanics are
// exercised by modest workloads.
func smallSegs() oltp.Options {
	return oltp.Options{FS: faultfs.OS{}, SegmentBytes: 1 << 9, CheckpointBytes: 1 << 11}
}

func openStore(t *testing.T, dir string, opts oltp.Options) *oltp.Store {
	t.Helper()
	s, err := oltp.OpenWith(dir, testSchema(), opts)
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func commitN(t *testing.T, s *oltp.Store, n int, seed int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := s.Begin()
		if _, err := tx.Insert(row(seed+int64(i), float64(i)*0.25, "F")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
}

func startPrimary(t *testing.T, store *oltp.Store, maxLag uint64) *Primary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p, err := StartPrimary(PrimaryConfig{
		Store:          store,
		Listener:       ln,
		MaxLagSegments: maxLag,
		HeartbeatEvery: 25 * time.Millisecond,
		WriteTimeout:   time.Second,
		BatchTx:        8,
	})
	if err != nil {
		t.Fatalf("StartPrimary: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func followerConfig(store *oltp.Store, dir, addr, id string) FollowerConfig {
	return FollowerConfig{
		Store:            store,
		Dir:              dir,
		PrimaryAddr:      addr,
		ID:               id,
		DialTimeout:      time.Second,
		HeartbeatTimeout: 400 * time.Millisecond,
		WriteTimeout:     time.Second,
		BackoffMin:       10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
	}
}

func startFollower(t *testing.T, cfg FollowerConfig) *Follower {
	t.Helper()
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// stateOf captures committed rows keyed by id.
func stateOf(t *testing.T, s *oltp.Store) map[oltp.RowID]oltp.Row {
	t.Helper()
	out := make(map[oltp.RowID]oltp.Row)
	tx := s.Begin()
	defer tx.Rollback()
	tx.Scan(func(id oltp.RowID, r oltp.Row) bool {
		out[id] = r
		return true
	})
	return out
}

func sameState(t *testing.T, primary, follower *oltp.Store) {
	t.Helper()
	want, got := stateOf(t, primary), stateOf(t, follower)
	if len(want) != len(got) {
		t.Fatalf("row count mismatch: primary %d, follower %d", len(want), len(got))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("row %d missing on follower", id)
		}
		for i := range w {
			if !w[i].Equal(g[i]) {
				t.Fatalf("row %d col %d: primary %v, follower %v", id, i, w[i], g[i])
			}
		}
	}
}

// waitConverged polls until the follower's cursor reaches the primary's
// durable LSN and the states match.
func waitConverged(t *testing.T, ps *oltp.Store, f *Follower) {
	t.Helper()
	durable, err := ps.DurableLSN()
	if err != nil {
		t.Fatalf("DurableLSN: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := *f.Status().Cursor
		if !cur.Less(durable) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %s, primary durable %s", cur, durable)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitReady(t *testing.T, f *Follower) {
	t.Helper()
	select {
	case <-f.Ready():
	case <-time.After(10 * time.Second):
		t.Fatalf("follower never became ready")
	}
}

// waitFired polls until the armed fault has gone off. An idle session
// still trades a heartbeat and an ack every HeartbeatEvery, so every
// sweep offset is reached within a few hundred milliseconds whether or
// not the data phase used that many ops; a fault that never fires means
// the follower stopped talking to its primary.
func waitFired(t *testing.T, fault *faultnet.Fault) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !fault.Fired() {
		if time.Now().After(deadline) {
			t.Fatalf("armed fault never fired (%d ops so far)", fault.Ops())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSnapshotBootstrapThenStream(t *testing.T) {
	ps := openStore(t, t.TempDir(), smallSegs())
	commitN(t, ps, 40, 0)
	if err := ps.Checkpoint(); err != nil { // truncate history: zero cursor is a gap
		t.Fatalf("Checkpoint: %v", err)
	}
	p := startPrimary(t, ps, 1000)

	fs := openStore(t, t.TempDir(), smallSegs())
	f := startFollower(t, followerConfig(fs, t.TempDir(), p.Addr(), "f1"))
	waitReady(t, f)
	waitConverged(t, ps, f)
	sameState(t, ps, fs)

	// Live streaming after the bootstrap.
	commitN(t, ps, 30, 1000)
	waitConverged(t, ps, f)
	sameState(t, ps, fs)

	st := f.Status()
	if st.Role != "follower" || st.Resyncs != 1 || !st.Connected {
		t.Fatalf("follower status: %+v", st)
	}
	pst := p.Status()
	if len(pst.Followers) != 1 || pst.Followers[0].ID != "f1" || pst.Followers[0].State != "streaming" {
		t.Fatalf("primary status: %+v", pst)
	}
	if pst.Followers[0].Resyncs != 1 {
		t.Fatalf("primary counted %d resyncs, want 1", pst.Followers[0].Resyncs)
	}
}

func TestReplicaRefusesLocalWritesWhileFollowing(t *testing.T) {
	ps := openStore(t, t.TempDir(), smallSegs())
	commitN(t, ps, 5, 0)
	p := startPrimary(t, ps, 1000)
	fs := openStore(t, t.TempDir(), smallSegs())
	f := startFollower(t, followerConfig(fs, t.TempDir(), p.Addr(), "f1"))
	waitReady(t, f)
	tx := fs.Begin()
	if _, err := tx.Insert(row(99, 1, "M")); err != nil {
		t.Fatalf("Insert staging: %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatalf("local commit on follower store succeeded")
	}
}

func TestFollowerRestartResumesWithoutResync(t *testing.T) {
	ps := openStore(t, t.TempDir(), smallSegs())
	commitN(t, ps, 20, 0)
	p := startPrimary(t, ps, 1000)

	fdirStore, fdirCur := t.TempDir(), t.TempDir()
	fs := openStore(t, fdirStore, smallSegs())
	f := startFollower(t, followerConfig(fs, fdirCur, p.Addr(), "f1"))
	waitReady(t, f)
	waitConverged(t, ps, f)

	// Kill the follower mid-life, write more on the primary, restart.
	f.Close()
	fs.Close()
	commitN(t, ps, 25, 500)

	fs2 := openStore(t, fdirStore, smallSegs())
	f2 := startFollower(t, followerConfig(fs2, fdirCur, p.Addr(), "f1"))
	waitConverged(t, ps, f2)
	sameState(t, ps, fs2)
	// The pin held while the follower was away: resuming must not have
	// needed a snapshot.
	if st := f2.Status(); st.Resyncs != 0 {
		t.Fatalf("restart forced %d resyncs, want 0", st.Resyncs)
	}
}

// TestFaultSweep arms every faultnet mode at a range of operation
// numbers on the follower's connections and checks reconvergence with
// byte-identical state after each.
func TestFaultSweep(t *testing.T) {
	modes := []faultnet.Mode{faultnet.Drop, faultnet.Partial, faultnet.Corrupt, faultnet.Stall}
	for _, mode := range modes {
		for _, at := range []uint64{1, 2, 3, 5, 9, 17} {
			t.Run(fmt.Sprintf("%s_at_%d", mode, at), func(t *testing.T) {
				ps := openStore(t, t.TempDir(), smallSegs())
				commitN(t, ps, 15, 0)
				p := startPrimary(t, ps, 1000)

				fault := faultnet.New()
				fault.SetStall(600 * time.Millisecond) // beyond HeartbeatTimeout
				fault.ArmAt(at, mode)
				cfg := followerConfig(openStore(t, t.TempDir(), smallSegs()), t.TempDir(), p.Addr(), "f1")
				fstore := cfg.Store
				baseDial := func(addr string, timeout time.Duration) (net.Conn, error) {
					return net.DialTimeout("tcp", addr, timeout)
				}
				cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
					c, err := baseDial(addr, timeout)
					if err != nil {
						return nil, err
					}
					return fault.Conn(c), nil
				}
				f := startFollower(t, cfg)
				waitReady(t, f)
				commitN(t, ps, 20, 100)
				waitConverged(t, ps, f)
				sameState(t, ps, fstore)
				// Late offsets land on the heartbeat exchange after the data
				// phase; either way the follower must still stream afterwards.
				waitFired(t, fault)
				commitN(t, ps, 5, 300)
				waitConverged(t, ps, f)
				sameState(t, ps, fstore)
			})
		}
	}
}

// TestPrimaryDiskBoundedWithDeadFollower checks max-lag eviction: a
// follower that connects once and dies must not pin the primary's WAL
// forever; after eviction the segment count stays bounded, and the
// returning follower resyncs via snapshot.
func TestPrimaryDiskBoundedWithDeadFollower(t *testing.T) {
	dir := t.TempDir()
	ps := openStore(t, dir, smallSegs())
	p := startPrimary(t, ps, 2) // evict beyond 2 segments of lag

	fdirCur := t.TempDir()
	fs := openStore(t, t.TempDir(), smallSegs())
	f := startFollower(t, followerConfig(fs, fdirCur, p.Addr(), "dead"))
	waitReady(t, f)
	f.Close() // the follower dies, pin left behind

	// Push far past the eviction horizon; checkpoints sweep segments
	// only below the retention floor, so if the pin were immortal the
	// directory would keep growing.
	commitN(t, ps, 400, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.Status()
		if len(st.Followers) == 1 && st.Followers[0].Evicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("eviction never fired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := ps.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	names, err := faultfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	// Post-eviction checkpoint leaves exactly one live segment + one
	// checkpoint (plus nothing pinned); allow slack for a rotation race.
	if len(names) > 4 {
		t.Fatalf("primary dir not bounded after eviction: %d files: %v", len(names), names)
	}

	// The evicted follower returns: it must reconverge via snapshot.
	fs2 := openStore(t, t.TempDir(), smallSegs())
	f2 := startFollower(t, followerConfig(fs2, fdirCur, p.Addr(), "dead"))
	waitReady(t, f2)
	waitConverged(t, ps, f2)
	sameState(t, ps, fs2)
	if st := f2.Status(); st.Resyncs != 1 {
		t.Fatalf("returning evicted follower resyncs = %d, want 1", st.Resyncs)
	}
}

// TestTwoFollowersIndependentPins runs two followers at different
// speeds and checks both converge and the primary reports both.
func TestTwoFollowersIndependentPins(t *testing.T) {
	ps := openStore(t, t.TempDir(), smallSegs())
	commitN(t, ps, 10, 0)
	p := startPrimary(t, ps, 1000)

	fs1 := openStore(t, t.TempDir(), smallSegs())
	f1 := startFollower(t, followerConfig(fs1, t.TempDir(), p.Addr(), "a"))
	fs2 := openStore(t, t.TempDir(), smallSegs())
	f2 := startFollower(t, followerConfig(fs2, t.TempDir(), p.Addr(), "b"))
	waitReady(t, f1)
	waitReady(t, f2)
	commitN(t, ps, 40, 100)
	waitConverged(t, ps, f1)
	waitConverged(t, ps, f2)
	sameState(t, ps, fs1)
	sameState(t, ps, fs2)
	st := p.Status()
	if len(st.Followers) != 2 {
		t.Fatalf("primary sees %d followers, want 2", len(st.Followers))
	}
	for _, fi := range st.Followers {
		if !fi.Connected || fi.Evicted {
			t.Fatalf("follower %q unhealthy in status: %+v", fi.ID, fi)
		}
	}
}

// TestSchemaMismatchRefused checks the handshake rejects a follower
// with different columns rather than shipping garbage.
func TestSchemaMismatchRefused(t *testing.T) {
	ps := openStore(t, t.TempDir(), smallSegs())
	p := startPrimary(t, ps, 1000)

	other := storage.MustSchema(storage.Field{Name: "X", Kind: value.IntKind})
	fstore, err := oltp.OpenWith(t.TempDir(), other, smallSegs())
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	defer fstore.Close()
	f := startFollower(t, followerConfig(fstore, t.TempDir(), p.Addr(), "bad"))
	// The follower must never become ready; give it a few sessions.
	select {
	case <-f.Ready():
		t.Fatalf("mismatched follower became ready")
	case <-time.After(500 * time.Millisecond):
	}
	if fstore.Len() != 0 {
		t.Fatalf("mismatched follower received data")
	}
}
