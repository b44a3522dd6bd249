package server

import (
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/router"
)

// TestRouteLabelCoversEveryRoute is the drift guard: every pattern the
// mux registers must map to a dedicated metrics label, never to the
// "other" bucket. PR 8 fixed exactly this drift by hand for /sql,
// /flatquery and /replication; this test makes the next new endpoint
// fail loudly instead.
func TestRouteLabelCoversEveryRoute(t *testing.T) {
	s := New(testPlatform(t))
	routes := s.Routes()
	if len(routes) == 0 {
		t.Fatal("no routes registered")
	}
	seen := map[string]bool{}
	for _, pattern := range routes {
		if seen[pattern] {
			t.Errorf("route %q registered twice", pattern)
		}
		seen[pattern] = true
		_, path, ok := strings.Cut(pattern, " ")
		if !ok || !strings.HasPrefix(path, "/") {
			t.Fatalf("route %q is not of the form %q", pattern, "METHOD /path")
		}
		if got := routeLabel(path); got != path {
			t.Errorf("routeLabel(%q) = %q; every registered route needs its own label", path, got)
		}
	}
	// The collapse rules themselves must keep holding: arbitrary paths
	// stay bounded-cardinality, and pprof keeps its prefix bucket.
	if got := routeLabel("/no/such/endpoint"); got != "other" {
		t.Errorf("routeLabel(unknown) = %q, want other", got)
	}
	if got := routeLabel("/debug/pprof/heap"); got != "/debug/pprof" {
		t.Errorf("routeLabel(pprof) = %q, want /debug/pprof", got)
	}
}

// TestRouterClassifiesEveryRoute keeps the routing front's endpoint
// table in lockstep with the mux: a new backend route must either be
// classified by the router or explicitly listed here as direct-access
// only, otherwise clients behind the router would get 404 for an
// endpoint the backend serves.
func TestRouterClassifiesEveryRoute(t *testing.T) {
	// Debug/introspection surfaces are per-node by nature; operators hit
	// the backend directly rather than asking the front to pick one.
	directOnly := map[string]bool{
		"GET /debug/traces": true,
		// Promotion targets one specific node; routing it through the
		// balanced front would be dangerous nonsense.
		"POST /promote": true,
		// So does an election vote: a candidate asks each node for its
		// own ballot, and the front must never answer for one.
		"POST /replication/vote": true,
	}
	s := New(testPlatform(t))
	for _, pattern := range s.Routes() {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Fatalf("route %q is not of the form %q", pattern, "METHOD /path")
		}
		got := router.Classify(method, path)
		if directOnly[pattern] {
			if got != "unknown" {
				t.Errorf("route %q listed as direct-only but classified %q", pattern, got)
			}
			delete(directOnly, pattern)
			continue
		}
		if got == "unknown" {
			t.Errorf("route %q is not classified by the router; add it to the routing table or the direct-only list", pattern)
		}
	}
	for pattern := range directOnly {
		t.Errorf("direct-only route %q is not registered by the server", pattern)
	}
	// Mutations must never land on the balanced-read path.
	for _, pattern := range []string{"POST /findings", "POST /findings/reinforce"} {
		method, path, _ := strings.Cut(pattern, " ")
		if got := router.Classify(method, path); got != "write" {
			t.Errorf("Classify(%q) = %q, want write", pattern, got)
		}
	}
}
