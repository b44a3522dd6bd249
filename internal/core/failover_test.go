package core

import (
	"bytes"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
)

// TestFailoverSoakFiguresByteEquivalent is the platform-level HA soak:
// the primary dies, the replica is promoted and takes the write load,
// and the figures an analyst renders from the promoted node are
// byte-identical to a control platform that never failed at all — the
// cutover must be invisible in the data. The returned old primary is
// then fenced by the higher epoch and demoted before it can fork the
// timeline.
//
// Determinism: the control applies the same visit-churn sequence from
// the same seed. Replication converges the replica byte-for-byte with
// the primary before the kill, so the cluster's post-failover state
// stays in lockstep with the control's.
func TestFailoverSoakFiguresByteEquivalent(t *testing.T) {
	dir := t.TempDir()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 60
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}

	newPlatform := func(name string) *Platform {
		p := New(Config{DataDir: filepath.Join(dir, name)})
		if err := p.OpenStore(raw.Schema()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	follow := func(p *Platform, name string) {
		if err := p.StartFollow(FollowConfig{
			Pipeline: NewDiScRiPipeline(),
			Builder:  NewDiScRiBuilder(),
			Setup:    FinishDiScRiSetup,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The never-failed control.
	control := newPlatform("control")
	t.Cleanup(func() { control.Close() })
	if err := control.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	follow(control, "control")

	// Node A: the initial primary.
	a := newPlatform("a")
	t.Cleanup(func() { a.Close() })
	if err := a.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	follow(a, "a")
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachPrimary(ReplicateListenConfig{
		Listener:       lnA,
		EpochDir:       filepath.Join(dir, "a-epoch"),
		HeartbeatEvery: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	// Node B: the replica that will be promoted.
	b := newPlatform("b")
	t.Cleanup(func() { b.Close() })
	if err := b.AttachReplica(ReplicateFromConfig{
		PrimaryAddr: lnA.Addr().String(),
		ID:          "b",
		CursorDir:   filepath.Join(dir, "b-cursor"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.ReplicaReady():
	case <-time.After(15 * time.Second):
		t.Fatal("replica never synced")
	}
	follow(b, "b")

	rngCluster := rand.New(rand.NewSource(11))
	rngControl := rand.New(rand.NewSource(11))
	churn := func(p *Platform, rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			commitVisit(t, p, rng)
		}
	}

	// Round 1: normal operation. Figures on the cluster primary match
	// the control exactly.
	churn(a, rngCluster, 15)
	churn(control, rngControl, 15)
	waitReplicaConverged(t, a, b)
	drain(t, a)
	drain(t, control)
	if af, cf := figure(t, a), figure(t, control); !bytes.Equal(af, cf) {
		t.Fatalf("pre-failover figures diverged:\ncluster:\n%s\ncontrol:\n%s", af, cf)
	}

	// The primary dies. Everything committed had replicated, so the
	// promotion must lose nothing.
	if st, ok := a.Replication(); !ok || st.Epoch != 1 {
		t.Fatalf("primary pre-kill status: %+v ok=%v", st, ok)
	}
	a.StopReplication()

	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Promote(PromoteConfig{Listener: lnB, HeartbeatEvery: 20 * time.Millisecond}); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	st, ok := b.Replication()
	if !ok || st.Role != "primary" || st.Epoch != 2 || st.Fenced {
		t.Fatalf("promoted platform status: %+v", st)
	}

	// Rounds 2-3: the promoted node carries the write load; CDC and the
	// warehouse keep running across the cutover, and the figures stay
	// byte-identical to the never-failed control.
	for round := 0; round < 2; round++ {
		churn(b, rngCluster, 15)
		churn(control, rngControl, 15)
		drain(t, b)
		drain(t, control)
		if bb, cb := snapshotBytes(t, b), snapshotBytes(t, control); !bytes.Equal(bb, cb) {
			t.Fatalf("round %d: store snapshots diverged (%d vs %d bytes)", round, len(bb), len(cb))
		}
		if bf, cf := figure(t, b), figure(t, control); !bytes.Equal(bf, cf) {
			t.Fatalf("round %d: post-failover figures diverged:\ncluster:\n%s\ncontrol:\n%s", round, bf, cf)
		}
	}

	// A follower joins the new timeline (its durable epoch becomes 2),
	// then gets misdirected at the returned old primary to fence it.
	c := newPlatform("c")
	t.Cleanup(func() { c.Close() })
	if err := c.AttachReplica(ReplicateFromConfig{
		PrimaryAddr: lnB.Addr().String(),
		ID:          "c",
		CursorDir:   filepath.Join(dir, "c-cursor"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.ReplicaReady():
	case <-time.After(15 * time.Second):
		t.Fatal("follower of promoted primary never synced")
	}
	waitReplicaConverged(t, b, c)

	// The old primary comes back on its original data, resuming epoch 1
	// from its durable epoch file.
	lnA2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachPrimary(ReplicateListenConfig{
		Listener:       lnA2,
		EpochDir:       filepath.Join(dir, "a-epoch"),
		HeartbeatEvery: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if st, ok := a.Replication(); !ok || st.Epoch != 1 {
		t.Fatalf("returned old primary resumed at epoch %d, want its durable 1", st.Epoch)
	}
	c.RehomeReplica(lnA2.Addr().String())

	// The higher-epoch handshake fences the stale primary, and core's
	// OnFenced hook demotes the store so it cannot accept a forked write.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := a.Replication()
		if ok && st.Fenced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old primary never fenced: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap, err := a.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tx := a.Store().Begin()
	if _, err := tx.Insert(oltp.Row(snap.Row(0))); err != nil {
		t.Fatalf("Insert staging on fenced node: %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("fenced ex-primary accepted a local commit")
	}

	// The misdirected follower recovers by re-homing onto the real
	// primary and converging to the live timeline.
	c.RehomeReplica(lnB.Addr().String())
	churn(b, rngCluster, 5)
	churn(control, rngControl, 5)
	waitFollowerState(t, b, c)
	drain(t, b)
	drain(t, control)
	if bf, cf := figure(t, b), figure(t, control); !bytes.Equal(bf, cf) {
		t.Fatalf("final figures diverged:\ncluster:\n%s\ncontrol:\n%s", bf, cf)
	}
}

// waitFollowerState polls until the follower's store rows match the
// primary's. Cursor comparison is wrong across a re-home (the cursors
// are from different WAL timelines), so this compares state bytes.
func waitFollowerState(t *testing.T, primary, follower *Platform) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		pb, fb := snapshotBytes(t, primary), snapshotBytes(t, follower)
		if bytes.Equal(pb, fb) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower state never converged (%d vs %d bytes)", len(pb), len(fb))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
