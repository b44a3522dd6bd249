package core

import (
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/repl"
)

// statusPeer serves a platform's live /replication status and its
// /replication/vote ballot over HTTP — the surfaces self-heal and
// election call on peers. In production this is another node's full
// HTTP face; the tests need only the two endpoints.
func statusPeer(t *testing.T, p *Platform) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/replication":
			st, ok := p.Replication()
			if !ok {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(st)
		case "/replication/vote":
			var req repl.VoteRequest
			json.NewDecoder(r.Body).Decode(&req)
			reply, err := p.Vote(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			json.NewEncoder(w).Encode(reply)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func waitRole(t *testing.T, p *Platform, role, primaryAddr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, ok := p.Replication()
		if ok && st.Role == role && (primaryAddr == "" || (st.Primary == primaryAddr && st.Connected)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("platform never reached role=%s primary=%s: %+v ok=%v", role, primaryAddr, st, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// selfHealCluster builds the standard A(primary)+B(replica) pair used
// by the self-heal tests, with follow mode running on both.
func selfHealCluster(t *testing.T) (a, b *Platform, lnA net.Listener, dir string) {
	t.Helper()
	dir = t.TempDir()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 40
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
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

	a = New(Config{DataDir: filepath.Join(dir, "a")})
	t.Cleanup(func() { a.Close() })
	if err := a.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := a.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	follow(a, "a")
	lnA, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachPrimary(ReplicateListenConfig{
		Listener:       lnA,
		EpochDir:       filepath.Join(dir, "a-repl"),
		HeartbeatEvery: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	b = New(Config{DataDir: filepath.Join(dir, "b")})
	t.Cleanup(func() { b.Close() })
	if err := b.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
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
	return a, b, lnA, dir
}

// TestSelfHealFencedPrimaryRejoinsAutomatically covers the OnFenced
// path: the old primary is fenced on the wire by a higher-epoch
// follower handshake, and — with self-heal armed — tears its session
// down, discovers the new primary through a peer, and re-homes as a
// follower without any operator action.
func TestSelfHealFencedPrimaryRejoinsAutomatically(t *testing.T) {
	a, b, lnA, dir := selfHealCluster(t)

	// Watchdog cadence is deliberately glacial: this test must exercise
	// the fence hook, not the discovery demotion.
	if err := a.EnableSelfHeal(SelfHealConfig{
		Peers:        []string{statusPeer(t, b).URL},
		ID:           "a",
		CursorDir:    filepath.Join(dir, "a-repl"),
		BackoffMin:   20 * time.Millisecond,
		ProbeTimeout: 500 * time.Millisecond,
		WatchEvery:   time.Hour,
	}); err != nil {
		t.Fatal(err)
	}

	// B is promoted (epoch 2) while A is still up — the
	// split-brain-in-waiting an election can produce when the
	// "dead" primary was merely partitioned.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Promote(PromoteConfig{Listener: lnB, HeartbeatEvery: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// A follower that joined the epoch-2 timeline is misdirected at A;
	// its handshake carries the higher epoch and fences A.
	c := New(Config{DataDir: filepath.Join(dir, "c")})
	t.Cleanup(func() { c.Close() })
	if err := c.OpenStore(a.Store().Schema()); err != nil {
		t.Fatal(err)
	}
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
	c.RehomeReplica(lnA.Addr().String())

	// Unattended from here: A must fence, demote, discover B and come
	// back as a connected follower of B.
	waitRole(t, a, "follower", lnB.Addr().String())

	// The re-homed ex-primary refuses local writes.
	snap, err := a.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tx := a.Store().Begin()
	if _, err := tx.Insert(oltp.Row(snap.Row(0))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("re-homed ex-primary accepted a local commit")
	}

	// And it converges byte-for-byte with the new primary under churn.
	c.RehomeReplica(lnB.Addr().String())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		commitVisit(t, b, rng)
	}
	waitFollowerState(t, b, a)
}

// TestSelfHealDiscoveryDemotesSupersededPrimary covers the isolation
// case wire fencing cannot: nothing ever dials the old primary's
// replication listener, so only peer discovery can tell it a successor
// leads a higher epoch. The watchdog must demote and re-home it.
func TestSelfHealDiscoveryDemotesSupersededPrimary(t *testing.T) {
	a, b, _, dir := selfHealCluster(t)

	if err := a.EnableSelfHeal(SelfHealConfig{
		Peers:        []string{statusPeer(t, b).URL},
		ID:           "a",
		CursorDir:    filepath.Join(dir, "a-repl"),
		BackoffMin:   20 * time.Millisecond,
		ProbeTimeout: 500 * time.Millisecond,
		WatchEvery:   25 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Promote(PromoteConfig{Listener: lnB, HeartbeatEvery: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// No follower ever contacts A. Discovery alone must demote it.
	waitRole(t, a, "follower", lnB.Addr().String())

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		commitVisit(t, b, rng)
	}
	waitFollowerState(t, b, a)
}

// TestSelfHealSurvivorFollowerRehomes covers the third leg: a follower
// stranded on a dead primary discovers the promoted successor through a
// peer and re-homes to it by itself.
func TestSelfHealSurvivorFollowerRehomes(t *testing.T) {
	a, b, lnA, dir := selfHealCluster(t)

	// C: a second follower of A, the one that will be stranded.
	c := New(Config{DataDir: filepath.Join(dir, "c")})
	t.Cleanup(func() { c.Close() })
	if err := c.OpenStore(a.Store().Schema()); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachReplica(ReplicateFromConfig{
		PrimaryAddr: lnA.Addr().String(),
		ID:          "c",
		CursorDir:   filepath.Join(dir, "c-cursor"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.ReplicaReady():
	case <-time.After(15 * time.Second):
		t.Fatal("second follower never synced")
	}
	if err := c.EnableSelfHeal(SelfHealConfig{
		Peers:        []string{statusPeer(t, b).URL},
		ID:           "c",
		CursorDir:    filepath.Join(dir, "c-cursor"),
		BackoffMin:   20 * time.Millisecond,
		ProbeTimeout: 500 * time.Millisecond,
		WatchEvery:   25 * time.Millisecond,
		RehomeAfter:  150 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	// The primary dies; B is promoted (by an operator's POST /promote
	// here; TestElectionWaitsForRehomeAfter elects it). C is told nothing.
	a.StopReplication()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Promote(PromoteConfig{Listener: lnB, HeartbeatEvery: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	waitRole(t, c, "follower", lnB.Addr().String())

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		commitVisit(t, b, rng)
	}
	waitFollowerState(t, b, c)

	// A same-epoch blip must never have been treated as a successor: C's
	// one re-home was to the strictly higher epoch.
	st, ok := c.Replication()
	if !ok || st.Epoch != 2 {
		t.Fatalf("re-homed follower epoch = %+v ok=%v, want epoch 2", st, ok)
	}
}

// TestSilentRequiresDisconnectAndRehomeAfter pins the one failure
// detector: a follower's feed counts as down only while it is
// disconnected and its last frame is at least RehomeAfter old.
func TestSilentRequiresDisconnectAndRehomeAfter(t *testing.T) {
	sh := &SelfHealConfig{RehomeAfter: time.Second}
	base := repl.Status{Role: "follower", Connected: false, SecondsSinceFrame: 2}

	if !sh.silent(base) {
		t.Fatal("disconnected for 2s not silent at RehomeAfter=1s")
	}
	edge := base
	edge.SecondsSinceFrame = 1
	if !sh.silent(edge) {
		t.Fatal("disconnected for exactly RehomeAfter not silent")
	}
	young := base
	young.SecondsSinceFrame = 0.1
	if sh.silent(young) {
		t.Fatal("100ms-old gap silent at RehomeAfter=1s")
	}
	connected := base
	connected.Connected = true
	if sh.silent(connected) {
		t.Fatal("connected follower counted silent")
	}
}

// TestElectionWaitsForRehomeAfter: after the primary dies nobody stands
// for election until its own feed has been silent for RehomeAfter —
// the watchdog's detector is the only one. Once it has, the
// best-placed follower with a promote listener wins a majority of
// three, leads exactly the epoch it won, and the other follower, which
// voted for it, re-homes to it.
func TestElectionWaitsForRehomeAfter(t *testing.T) {
	a, b, lnA, dir := selfHealCluster(t)
	c := New(Config{DataDir: filepath.Join(dir, "c")})
	t.Cleanup(func() { c.Close() })
	if err := c.OpenStore(a.Store().Schema()); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachReplica(ReplicateFromConfig{
		PrimaryAddr: lnA.Addr().String(),
		ID:          "c",
		CursorDir:   filepath.Join(dir, "c-cursor"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.ReplicaReady():
	case <-time.After(15 * time.Second):
		t.Fatal("second follower never synced")
	}
	// Equal cursors make b the best candidate by id, not by timing.
	deadline := time.Now().Add(15 * time.Second)
	for {
		sb, _ := b.Replication()
		sc, _ := c.Replication()
		if *sb.Cursor == *sc.Cursor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never reached the same cursor: %v vs %v", sb.Cursor, sc.Cursor)
		}
		time.Sleep(5 * time.Millisecond)
	}

	peerA, peerB, peerC := statusPeer(t, a), statusPeer(t, b), statusPeer(t, c)
	heal := func(p *Platform, id string, rehomeAfter time.Duration, peers ...*httptest.Server) {
		var urls []string
		for _, s := range peers {
			urls = append(urls, s.URL)
		}
		if err := p.EnableSelfHeal(SelfHealConfig{
			Peers:        urls,
			ID:           id,
			CursorDir:    filepath.Join(dir, id+"-cursor"),
			BackoffMin:   20 * time.Millisecond,
			ProbeTimeout: 500 * time.Millisecond,
			WatchEvery:   20 * time.Millisecond,
			RehomeAfter:  rehomeAfter,
		}); err != nil {
			t.Fatal(err)
		}
	}
	b.SetPromoteListen("127.0.0.1:0")
	heal(b, "b", time.Hour, peerA, peerC)
	heal(c, "c", 100*time.Millisecond, peerA, peerB) // votes, never stands: no promote listener

	a.StopReplication() // the primary dies
	time.Sleep(500 * time.Millisecond)
	for name, p := range map[string]*Platform{"b": b, "c": c} {
		if st, ok := p.Replication(); !ok || st.Role != "follower" || st.Epoch != 1 {
			t.Fatalf("%s changed role before its detector fired: %+v ok=%v", name, st, ok)
		}
	}
	if v := b.ballot.Voted(); v != 0 {
		t.Fatalf("b stood for epoch %d before its feed was silent for RehomeAfter", v)
	}

	// Arm b's detector at the same 100ms: now it stands and wins.
	b.StopSelfHeal()
	heal(b, "b", 100*time.Millisecond, peerA, peerC)
	waitRole(t, b, "primary", "")
	st, _ := b.Replication()
	if st.Epoch != 2 || b.ballot.Voted() != 2 || c.ballot.Voted() != 2 {
		t.Fatalf("winner leads epoch %d with votes b=%d c=%d; want all 2", st.Epoch, b.ballot.Voted(), c.ballot.Voted())
	}
	waitRole(t, c, "follower", st.Addr)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		commitVisit(t, b, rng)
	}
	waitFollowerState(t, b, c)
}
