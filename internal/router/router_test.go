package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/repl"
)

// stub is a fake cluster node: /healthz and /replication answer from
// configurable state, every other path echoes which stub served it.
type stub struct {
	name string
	srv  *httptest.Server

	mu      sync.Mutex
	healthy bool
	hasRepl bool
	st      repl.Status
	hits    map[string]int
	// killNext[path] > 0 makes the next request to path die mid-flight
	// (hijacked connection closed before any response bytes), simulating
	// a backend crash with the request's effect unknown.
	killNext map[string]int
}

func newStub(t *testing.T, name string) *stub {
	t.Helper()
	s := &stub{name: name, healthy: true, hits: map[string]int{}, killNext: map[string]int{}}
	s.srv = httptest.NewServer(http.HandlerFunc(s.handler))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stub) handler(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	healthy, hasRepl, st := s.healthy, s.hasRepl, s.st
	s.hits[r.Method+" "+r.URL.Path]++
	kill := s.killNext[r.URL.Path] > 0
	if kill {
		s.killNext[r.URL.Path]--
	}
	s.mu.Unlock()
	if kill {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	switch r.URL.Path {
	case "/healthz":
		if !healthy {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	case "/replication":
		if !hasRepl {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(st)
	default:
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{
			"served_by": s.name, "path": r.URL.Path, "body": string(body),
		})
	}
}

func (s *stub) setPrimary(epoch uint64, fenced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hasRepl = true
	s.st = repl.Status{Role: "primary", Epoch: epoch, Fenced: fenced, Addr: "127.0.0.1:0"}
}

func (s *stub) setFollower(epoch uint64, seconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hasRepl = true
	s.st = repl.Status{Role: "follower", Epoch: epoch, SecondsSinceFrame: seconds, Connected: true}
}

func (s *stub) setHealthy(ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healthy = ok
}

func (s *stub) count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[key]
}

// newRouter fronts the stubs with an effectively-manual probe cadence:
// tests drive convergence with ProbeOnce so nothing depends on timing.
func newRouter(t *testing.T, stubs ...*stub) *Router {
	t.Helper()
	urls := make([]string, 0, len(stubs))
	for _, s := range stubs {
		urls = append(urls, s.srv.URL)
	}
	rt, err := New(Config{
		Backends:     urls,
		PollEvery:    time.Hour,
		MaxStaleness: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

type echo struct {
	ServedBy string `json:"served_by"`
	Path     string `json:"path"`
	Body     string `json:"body"`
}

func do(t *testing.T, rt *Router, method, path, body string) (*httptest.ResponseRecorder, echo) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	var e echo
	if rec.Code == http.StatusOK {
		json.Unmarshal(rec.Body.Bytes(), &e)
	}
	return rec, e
}

func TestWritesRouteToPrimaryReadsBalanceOverFollowers(t *testing.T) {
	p, f1, f2 := newStub(t, "p"), newStub(t, "f1"), newStub(t, "f2")
	p.setPrimary(1, false)
	f1.setFollower(1, 0)
	f2.setFollower(1, 0)
	rt := newRouter(t, p, f1, f2)

	for i := 0; i < 4; i++ {
		rec, e := do(t, rt, http.MethodPost, "/findings", `{"x":1}`)
		if rec.Code != http.StatusOK || e.ServedBy != "p" {
			t.Fatalf("write %d: code=%d served_by=%q, want primary", i, rec.Code, e.ServedBy)
		}
		if role := rec.Header().Get("X-Ddgms-Role"); role != "primary" {
			t.Fatalf("write role header = %q, want primary", role)
		}
	}
	served := map[string]int{}
	for i := 0; i < 10; i++ {
		rec, e := do(t, rt, http.MethodPost, "/query", `{"agg":"count"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d: code=%d body=%s", i, rec.Code, rec.Body)
		}
		if e.Body != `{"agg":"count"}` {
			t.Fatalf("read %d: body not forwarded, got %q", i, e.Body)
		}
		served[e.ServedBy]++
	}
	if served["f1"] == 0 || served["f2"] == 0 {
		t.Fatalf("reads not balanced over followers: %v", served)
	}
	if served["p"] != 0 {
		t.Fatalf("reads leaked to primary while followers fresh: %v", served)
	}
}

func TestStaleFollowersSkippedThenReadsFailOverToPrimary(t *testing.T) {
	p, f1, f2 := newStub(t, "p"), newStub(t, "f1"), newStub(t, "f2")
	p.setPrimary(3, false)
	f1.setFollower(3, 0)
	f2.setFollower(3, 120) // stale beyond MaxStaleness
	rt := newRouter(t, p, f1, f2)

	for i := 0; i < 6; i++ {
		rec, e := do(t, rt, http.MethodPost, "/query", `{}`)
		if rec.Code != http.StatusOK || e.ServedBy != "f1" {
			t.Fatalf("read %d: code=%d served_by=%q, want f1 only", i, rec.Code, e.ServedBy)
		}
	}

	// Every follower stale: reads must fall over to the primary rather
	// than fail.
	f1.setFollower(3, 120)
	rt.ProbeOnce()
	rec, e := do(t, rt, http.MethodPost, "/query", `{}`)
	if rec.Code != http.StatusOK || e.ServedBy != "p" {
		t.Fatalf("stale-cluster read: code=%d served_by=%q, want primary", rec.Code, e.ServedBy)
	}
	if rec.Header().Get("X-Ddgms-Role") != "primary" {
		t.Fatalf("stale-cluster read role = %q, want primary", rec.Header().Get("X-Ddgms-Role"))
	}
}

func TestEpochResolutionAfterPromotion(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	a.setPrimary(1, false)
	b.setFollower(1, 0)
	rt := newRouter(t, a, b)

	if _, e := do(t, rt, http.MethodPost, "/findings", `{}`); e.ServedBy != "a" {
		t.Fatalf("pre-promotion write served by %q, want a", e.ServedBy)
	}

	// b promotes to epoch 2; a comes back still claiming primary at
	// epoch 1 (a stale ex-primary that has not yet learned it was
	// fenced). The higher epoch must win, and a must get no writes.
	b.setPrimary(2, false)
	rt.ProbeOnce()
	aWrites := a.count("POST /findings")
	for i := 0; i < 4; i++ {
		rec, e := do(t, rt, http.MethodPost, "/findings", `{}`)
		if rec.Code != http.StatusOK || e.ServedBy != "b" {
			t.Fatalf("post-promotion write %d: code=%d served_by=%q, want b", i, rec.Code, e.ServedBy)
		}
	}
	if got := a.count("POST /findings"); got != aWrites {
		t.Fatalf("stale ex-primary received %d new writes after promotion", got-aWrites)
	}

	cs := rt.Cluster()
	if cs.Epoch != 2 || !strings.Contains(cs.Primary, b.srv.URL) {
		t.Fatalf("cluster = primary %q epoch %d, want %q epoch 2", cs.Primary, cs.Epoch, b.srv.URL)
	}
	var staleSeen bool
	for _, bs := range cs.Backends {
		if bs.URL == a.srv.URL {
			if !bs.Stale {
				t.Fatalf("returned old primary not marked stale: %+v", bs)
			}
			staleSeen = true
		}
	}
	if !staleSeen {
		t.Fatal("old primary missing from cluster status")
	}
	if cs.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", cs.Failovers)
	}
}

func TestFencedPrimaryGetsNoTraffic(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	a.setPrimary(2, true) // fenced ex-primary, same epoch as the winner
	b.setPrimary(2, false)
	rt := newRouter(t, a, b)

	rec, e := do(t, rt, http.MethodPost, "/findings", `{}`)
	if rec.Code != http.StatusOK || e.ServedBy != "b" {
		t.Fatalf("write: code=%d served_by=%q, want non-fenced b", rec.Code, e.ServedBy)
	}
}

func TestShedWithRetryAfterWhenNoPrimary(t *testing.T) {
	a, b := newStub(t, "a"), newStub(t, "b")
	a.setFollower(1, 0)
	b.setFollower(1, 0)
	rt := newRouter(t, a, b) // nobody claims primary

	rec, _ := do(t, rt, http.MethodPost, "/findings", `{}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write with no primary: code=%d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("write shed missing Retry-After")
	}

	// Followers without a resolved primary are not read-eligible (their
	// epoch cannot be validated), so reads shed too — with Retry-After.
	rec, _ = do(t, rt, http.MethodPost, "/query", `{}`)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("read with no cluster head: code=%d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestWriteProxyErrorSheds502WithRetryAfter(t *testing.T) {
	p := newStub(t, "p")
	p.setPrimary(1, false)
	rt := newRouter(t, p)

	p.srv.Close() // primary dies between probe and request
	rec, _ := do(t, rt, http.MethodPost, "/findings", `{}`)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("write to dead primary: code=%d, want 502", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("502 shed missing Retry-After")
	}
	// The live-path failure must demote the backend immediately: the
	// next request sheds 503 (no primary) instead of dialing a corpse.
	rec, _ = do(t, rt, http.MethodPost, "/findings", `{}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second write after markUnhealthy: code=%d, want 503", rec.Code)
	}
}

func TestReadRetriesWithBodyReplayAfterBackendDeath(t *testing.T) {
	p, f1, f2 := newStub(t, "p"), newStub(t, "f1"), newStub(t, "f2")
	p.setPrimary(1, false)
	f1.setFollower(1, 0)
	f2.setFollower(1, 0)
	rt := newRouter(t, p, f1, f2)

	f1.srv.Close() // dies after being probed healthy
	for i := 0; i < 6; i++ {
		rec, e := do(t, rt, http.MethodPost, "/query", `{"agg":"mean"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d after follower death: code=%d body=%s", i, rec.Code, rec.Body)
		}
		if e.Body != `{"agg":"mean"}` {
			t.Fatalf("read %d: replayed body = %q, want original", i, e.Body)
		}
		if e.ServedBy == "f1" {
			t.Fatalf("read %d served by dead follower", i)
		}
	}
}

func TestUnknownRouteAnd404(t *testing.T) {
	p := newStub(t, "p")
	p.setPrimary(1, false)
	rt := newRouter(t, p)

	rec, _ := do(t, rt, http.MethodGet, "/no/such/endpoint", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: code=%d, want 404", rec.Code)
	}
	// Wrong method on a known path is unknown too.
	rec, _ = do(t, rt, http.MethodDelete, "/query", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE /query: code=%d, want 404", rec.Code)
	}
	// Node-addressed routes are never proxied: a vote or a promotion
	// sent to the front must not land on whichever node it resolves.
	for _, path := range []string{"/replication/vote", "/promote"} {
		rec, _ = do(t, rt, http.MethodPost, path, `{}`)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("POST %s through the front: code=%d, want 404", path, rec.Code)
		}
		if got := p.count("POST " + path); got != 0 {
			t.Fatalf("POST %s reached a backend %d times through the front", path, got)
		}
	}
}

func TestStandaloneBackendActsAsPrimary(t *testing.T) {
	s := newStub(t, "solo") // healthy, no /replication → standalone
	rt := newRouter(t, s)

	rec, e := do(t, rt, http.MethodPost, "/findings", `{}`)
	if rec.Code != http.StatusOK || e.ServedBy != "solo" {
		t.Fatalf("standalone write: code=%d served_by=%q", rec.Code, e.ServedBy)
	}
	rec, e = do(t, rt, http.MethodPost, "/query", `{}`)
	if rec.Code != http.StatusOK || e.ServedBy != "solo" {
		t.Fatalf("standalone read: code=%d served_by=%q", rec.Code, e.ServedBy)
	}
}

func TestRouterHealthEndpoint(t *testing.T) {
	p := newStub(t, "p")
	p.setPrimary(1, false)
	rt := newRouter(t, p)

	rec, _ := do(t, rt, http.MethodGet, "/routerz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/routerz with primary: code=%d", rec.Code)
	}

	p.setHealthy(false)
	rt.ProbeOnce()
	rec, _ = do(t, rt, http.MethodGet, "/routerz", "")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("/routerz mid-cutover: code=%d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestClusterEndpointShape(t *testing.T) {
	p, f := newStub(t, "p"), newStub(t, "f")
	p.setPrimary(4, false)
	f.setFollower(4, 1.5)
	rt := newRouter(t, p, f)

	rec, _ := do(t, rt, http.MethodGet, "/cluster", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster: code=%d", rec.Code)
	}
	var cs ClusterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatalf("decoding /cluster: %v", err)
	}
	if cs.Epoch != 4 || cs.Primary != p.srv.URL || len(cs.Backends) != 2 {
		t.Fatalf("cluster = %+v", cs)
	}
	for _, bs := range cs.Backends {
		if bs.URL == f.srv.URL && !bs.EligibleReads {
			t.Fatalf("fresh follower not read-eligible: %+v", bs)
		}
	}
}

func TestFollowerFromOlderEpochNotReadEligible(t *testing.T) {
	p, f := newStub(t, "p"), newStub(t, "f")
	p.setPrimary(5, false)
	f.setFollower(4, 0) // not yet re-homed onto the epoch-5 primary
	rt := newRouter(t, p, f)

	rec, e := do(t, rt, http.MethodPost, "/query", `{}`)
	if rec.Code != http.StatusOK || e.ServedBy != "p" {
		t.Fatalf("read with behind-epoch follower: code=%d served_by=%q, want primary", rec.Code, e.ServedBy)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends should fail")
	}
	if _, err := New(Config{Backends: []string{"not a url"}}); err == nil {
		t.Fatal("New with a relative backend should fail")
	}
	if _, err := New(Config{Backends: []string{"http://x:1", "http://x:1"}}); err == nil {
		t.Fatal("New with duplicate backends should fail")
	}
}

func TestIdempotentReadClassification(t *testing.T) {
	cases := []struct {
		method, path string
		want         bool
	}{
		{http.MethodGet, "/freshness", true},
		{http.MethodGet, "/findings", true},
		{http.MethodPost, "/query", true},
		{http.MethodPost, "/sql", true},
		{http.MethodPost, "/flatquery", true},
		{http.MethodPost, "/findings", false},
		{http.MethodPost, "/findings/reinforce", false},
		{http.MethodPost, "/anything-future", false},
		{http.MethodDelete, "/query", false},
	}
	for _, c := range cases {
		if got := idempotentRead(c.method, c.path); got != c.want {
			t.Errorf("idempotentRead(%s %s) = %v, want %v", c.method, c.path, got, c.want)
		}
	}
}

func TestIdempotentReadReplaysNonIdempotentDoesNot(t *testing.T) {
	// An idempotent read whose first attempt dies mid-flight is replayed
	// against the next candidate and succeeds.
	p, f := newStub(t, "p"), newStub(t, "f")
	p.setPrimary(1, false)
	f.setFollower(1, 0)
	f.mu.Lock()
	f.killNext["/query"] = 1
	f.mu.Unlock()
	rt := newRouter(t, p, f)

	rec, e := do(t, rt, http.MethodPost, "/query", `{"agg":"count"}`)
	if rec.Code != http.StatusOK || e.ServedBy != "p" {
		t.Fatalf("idempotent retry: code=%d served_by=%q, want 200 from p", rec.Code, e.ServedBy)
	}
	if got := f.count("POST /query"); got != 1 {
		t.Fatalf("killed follower hit %d times, want 1", got)
	}

	// A non-idempotent POST reaching the read path gets exactly one
	// attempt: its first try died with unknown effect, so replaying it
	// against another backend could double-apply.
	p2, f2 := newStub(t, "p2"), newStub(t, "f2")
	p2.setPrimary(1, false)
	f2.setFollower(1, 0)
	f2.mu.Lock()
	f2.killNext["/findings"] = 1
	f2.mu.Unlock()
	rt2 := newRouter(t, p2, f2)

	req := httptest.NewRequest(http.MethodPost, "/findings", strings.NewReader(`{"x":1}`))
	w := httptest.NewRecorder()
	rt2.proxyRead(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("non-idempotent read after transport death: code=%d, want 503 shed", w.Code)
	}
	if got := f2.count("POST /findings"); got != 1 {
		t.Fatalf("dying backend hit %d times, want 1", got)
	}
	if got := p2.count("POST /findings"); got != 0 {
		t.Fatalf("non-idempotent POST replayed to %d other backends, want 0", got)
	}
}

func TestProbeBackoffSkipsDeadBackendThenResets(t *testing.T) {
	s := newStub(t, "s")
	s.setPrimary(1, false)
	rt := newRouter(t, s)

	// Kill the backend and confirm the failure arms a backoff window.
	s.setHealthy(false)
	rt.ProbeOnce()
	healthBefore := s.count("GET /healthz")

	// An unforced round inside the backoff window must skip the backend
	// entirely — this is what keeps a long-dead node from being hammered
	// at full poll cadence.
	rt.probeRound(false)
	if got := s.count("GET /healthz"); got != healthBefore {
		t.Fatalf("backend probed %d extra times inside backoff window", got-healthBefore)
	}

	// A forced round still probes (ProbeOnce is the test/startup path),
	// and a success resets the backoff so the next unforced round probes
	// again immediately.
	s.setHealthy(true)
	rt.ProbeOnce()
	afterForce := s.count("GET /healthz")
	if afterForce != healthBefore+1 {
		t.Fatalf("forced round probed %d times, want 1", afterForce-healthBefore)
	}
	rt.probeRound(false)
	if got := s.count("GET /healthz"); got != afterForce+1 {
		t.Fatalf("post-reset unforced round probed %d times, want 1", got-afterForce)
	}
}
