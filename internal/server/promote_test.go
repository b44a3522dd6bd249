package server

import (
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/repl"
)

// TestHandlePromote exercises the HTTP face of failover: a replica is
// cut over with one POST /promote against the node, after which it
// reports as the epoch-2 primary; the request is rejected with 400 on
// a missing listen address and 409 when the node has nothing to
// promote (it already leads).
func TestHandlePromote(t *testing.T) {
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 40
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	primary := core.New(core.Config{DataDir: filepath.Join(dir, "primary")})
	t.Cleanup(func() { primary.Close() })
	if err := primary.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := primary.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.AttachPrimary(core.ReplicateListenConfig{
		Listener:       ln,
		HeartbeatEvery: 25 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	replica := core.New(core.Config{DataDir: filepath.Join(dir, "replica")})
	t.Cleanup(func() { replica.Close() })
	if err := replica.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := replica.AttachReplica(core.ReplicateFromConfig{
		PrimaryAddr: ln.Addr().String(),
		ID:          "reader-1",
		CursorDir:   filepath.Join(dir, "replcur"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-replica.ReplicaReady():
	case <-time.After(10 * time.Second):
		t.Fatal("replica never caught up")
	}

	pts := serveHandler(t, New(primary))
	rts := serveHandler(t, New(replica))

	// Missing listen address: rejected before anything changes.
	var errBody map[string]string
	if code := postJSON(t, rts.URL+"/promote", map[string]string{}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("POST /promote without listen = %d, want 400", code)
	}

	// A primary has nothing to promote: conflict, not success.
	if code := postJSON(t, pts.URL+"/promote", map[string]string{"listen": "127.0.0.1:0"}, &errBody); code != http.StatusConflict {
		t.Fatalf("POST /promote on the primary = %d, want 409", code)
	}

	// The real cutover: the old primary dies first, then one request
	// flips the replica.
	primary.StopReplication()
	var st repl.Status
	if code := postJSON(t, rts.URL+"/promote", map[string]string{"listen": "127.0.0.1:0"}, &st); code != http.StatusOK {
		t.Fatalf("POST /promote on the replica = %d, want 200", code)
	}
	if st.Role != "primary" || st.Epoch != 2 || st.Fenced {
		t.Fatalf("promoted status = %+v", st)
	}
	// The node's own /replication now agrees, and local writes work.
	var again repl.Status
	if code := getJSON(t, rts.URL+"/replication", &again); code != http.StatusOK || again.Role != "primary" || again.Epoch != 2 {
		t.Fatalf("GET /replication after promote = %d %+v", code, again)
	}
	if _, err := replica.RecordFinding("failover", "promoted node accepts writes", "test"); err != nil {
		t.Fatalf("promoted store still refuses local writes: %v", err)
	}
}

func TestPromoteNotSupported(t *testing.T) {
	ts := testServer(t) // standalone platform: no replication roles
	var body map[string]string
	if code := postJSON(t, ts.URL+"/promote", map[string]string{"listen": "127.0.0.1:0"}, &body); code != http.StatusConflict {
		t.Fatalf("POST /promote without replication = %d, want 409 (nothing to promote)", code)
	}
	if body["error"] == "" {
		t.Fatal("409 body carries no error message")
	}
}

// votingPlatform records the ballot request the server decoded and
// answers with a fixed reply.
type votingPlatform struct {
	*core.Platform
	got   repl.VoteRequest
	reply repl.VoteReply
}

func (p *votingPlatform) Vote(req repl.VoteRequest) (repl.VoteReply, error) {
	p.got = req
	return p.reply, nil
}

// TestHandleVote exercises the HTTP face of the node-side election: the
// body reaches the platform's ballot intact and its answer comes back
// as 200 whether granted or not; a node that takes no part in elections
// (no self-heal) answers 409, and a malformed body 400.
func TestHandleVote(t *testing.T) {
	p := testPlatform(t)
	if code := postJSON(t, serveHandler(t, New(p)).URL+"/replication/vote", repl.VoteRequest{Epoch: 2}, nil); code != http.StatusConflict {
		t.Fatalf("vote to a node without self-heal = %d, want 409", code)
	}

	vp := &votingPlatform{Platform: p, reply: repl.VoteReply{Granted: true}}
	ts := serveHandler(t, New(vp))
	req := repl.VoteRequest{Epoch: 3, ID: "b", Follows: 2, Cursor: oltp.WALCursor{Seq: 4, Off: 512}}
	var reply repl.VoteReply
	if code := postJSON(t, ts.URL+"/replication/vote", req, &reply); code != http.StatusOK || !reply.Granted {
		t.Fatalf("vote = %d %+v, want 200 granted", code, reply)
	}
	if vp.got != req {
		t.Fatalf("platform got %+v, want %+v", vp.got, req)
	}
	vp.reply = repl.VoteReply{}
	if code := postJSON(t, ts.URL+"/replication/vote", req, &reply); code != http.StatusOK || reply.Granted {
		t.Fatalf("refused vote = %d %+v, want 200 not granted", code, reply)
	}

	resp, err := http.Post(ts.URL+"/replication/vote", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed vote = %d, want 400", resp.StatusCode)
	}
}
