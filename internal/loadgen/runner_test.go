package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubTarget is a minimal ddgms-shaped server: it accepts the four
// endpoints and exposes a /metrics page, so runner mechanics (open
// loop, classification, scrape deltas) are testable without a
// platform build.
type stubTarget struct {
	mu       sync.Mutex
	byPath   map[string]int
	admitted atomic.Int64
}

func newStubTarget() (*stubTarget, *httptest.Server) {
	st := &stubTarget{byPath: map[string]int{}}
	mux := http.NewServeMux()
	record := func(path string, status int, doc any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			st.mu.Lock()
			st.byPath[path]++
			st.mu.Unlock()
			st.admitted.Add(1)
			w.WriteHeader(status)
			if doc != nil {
				json.NewEncoder(w).Encode(doc)
			}
		}
	}
	mux.HandleFunc("POST /query", record("/query", 200, map[string]any{"rows": 1}))
	mux.HandleFunc("POST /sql", record("/sql", 200, map[string]any{"rows": 1}))
	mux.HandleFunc("POST /flatquery", record("/flatquery", 200, map[string]any{"rows": 1}))
	mux.HandleFunc("GET /freshness", record("/freshness", 404, map[string]string{"error": "not in follow mode"}))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ddgms_govern_admitted_total %d\n", st.admitted.Load())
		fmt.Fprintf(w, "ddgms_exec_rows_scanned_total %d\n", st.admitted.Load()*100)
	})
	return st, httptest.NewServer(mux)
}

func TestRunAgainstStubServer(t *testing.T) {
	st, srv := newStubTarget()
	defer srv.Close()

	sc, _ := Builtin("interactive")
	rep, err := Run(context.Background(), RunConfig{
		Target:       srv.URL,
		Scenario:     sc,
		Duration:     time.Second,
		RateOverride: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.TransportErrors > 0 {
		t.Fatalf("%d transport errors against local stub", rep.Overall.TransportErrors)
	}
	// Open loop at 100 rps for 1s: the poisson draw lands near 100
	// arrivals; everything but freshness answers 200.
	if rep.Overall.Requests < 60 || rep.Overall.Requests > 140 {
		t.Fatalf("sent %d requests, want ~100", rep.Overall.Requests)
	}
	if rep.Overall.OK == 0 {
		t.Fatal("no successful responses")
	}
	if rep.ShedRate != 0 {
		t.Fatalf("stub sheds nothing, got shed rate %v", rep.ShedRate)
	}
	// The 404s from /freshness are neither OK, shed, nor error.
	if got := rep.Endpoints[EndpointFreshness].Status["404"]; got == 0 {
		t.Fatal("freshness endpoint never exercised")
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("error rate %v, want 0 (404 is not an error)", rep.ErrorRate)
	}
	// Scrape delta: admitted on the server must equal requests the
	// client fired, and rows follow at 100 per request.
	if rep.Server == nil {
		t.Fatal("no server delta despite /metrics being served")
	}
	if int(rep.Server.Admitted) != rep.Overall.Requests {
		t.Fatalf("server admitted %v, client sent %d", rep.Server.Admitted, rep.Overall.Requests)
	}
	if rep.Server.RowsScanned != rep.Server.Admitted*100 {
		t.Fatalf("rows delta %v, want %v", rep.Server.RowsScanned, rep.Server.Admitted*100)
	}

	// The mix must route to every endpoint in the scenario.
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, path := range []string{"/query", "/sql", "/flatquery", "/freshness"} {
		if st.byPath[path] == 0 {
			t.Fatalf("endpoint %s never hit; distribution: %v", path, st.byPath)
		}
	}
}

// Two runs of the same scenario against the same target must fire the
// same requests in the same order — the whole point of seeding. The
// order is checked on the run's own schedule-ordered plan: each arrival
// fires in its own goroutine, so the order the server sees them in is
// the scheduler's. The server checks what arrived, per endpoint.
func TestRunReproducible(t *testing.T) {
	st, srv := newStubTarget()
	defer srv.Close()

	sc := Scenario{
		Name:    "repro",
		Seed:    9,
		Arrival: Arrival{Process: ArrivalConstant, RPS: 50},
		Mix: []MixEntry{
			{Endpoint: EndpointMDX, Weight: 0.5},
			{Endpoint: EndpointSQL, Weight: 0.5},
		},
	}
	cfg := RunConfig{Target: srv.URL, Scenario: sc, Duration: 500 * time.Millisecond, SkipScrape: true}
	schedule, reqs, _, err := plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, r := range reqs {
		want[r.path]++
	}
	if len(want) != 2 {
		t.Fatalf("plan hits %v; the mix has two endpoints", want)
	}

	for run := 1; run <= 2; run++ {
		st.mu.Lock()
		clear(st.byPath)
		st.mu.Unlock()
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		got := maps.Clone(st.byPath)
		st.mu.Unlock()
		if !maps.Equal(got, want) {
			t.Fatalf("run %d: server saw %v per endpoint, the plan fires %v", run, got, want)
		}
		again, againReqs, _, err := plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, schedule) || !reflect.DeepEqual(againReqs, reqs) {
			t.Fatalf("run %d: schedule-ordered requests not reproduced", run)
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	sc, _ := Builtin("analytics")
	if _, err := Run(context.Background(), RunConfig{Scenario: sc}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := Run(context.Background(), RunConfig{Target: "http://x", Scenario: Scenario{}}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// End-to-end against the real governed stack: self-serve target, tiny
// cohort, short constant-rate run. This is the test behind
// scripts/loadgen_smoke.sh — non-zero throughput, zero 5xx.
func TestSelfServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping platform build")
	}
	ss, err := StartSelfServe()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	sc, _ := Builtin("analytics")
	rep, err := Run(context.Background(), RunConfig{
		Target:       ss.URL,
		Scenario:     sc,
		Duration:     time.Second,
		RateOverride: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.OK == 0 {
		t.Fatalf("no successful responses: %+v", rep.Overall)
	}
	if rep.Overall.TransportErrors > 0 {
		t.Fatalf("%d transport errors", rep.Overall.TransportErrors)
	}
	for code, n := range rep.Overall.Status {
		if c, _ := strconv.Atoi(code); c >= 500 {
			t.Fatalf("smoke run produced %d responses with status %s", n, code)
		}
	}
	if rep.Server == nil || rep.Server.Admitted == 0 {
		t.Fatalf("server delta missing or empty: %+v", rep.Server)
	}
}
