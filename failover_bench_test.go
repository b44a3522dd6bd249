package ddgms_test

// The failover benchmark: the paper's decision-guidance service is only
// useful to a clinic if the figures keep rendering while the database
// layer fails over, so this measures the cutover as a client behind the
// routing front sees it. One iteration is one full failover: a
// primary/replica pair fronted by the router takes the builtin
// interactive mix at a fixed offered rate, the primary is killed
// mid-run, the replica is promoted over POST /promote, and the bench
// records how long until the front routes the first write (ttw-ms) and
// the first read (ttfr-ms) to the new primary, plus the shed and error
// rates the load generator observed across the whole run. Sheds
// (429/503 with Retry-After) are the designed behaviour during the
// cutover gap; raw 5xx errors are not — scripts/bench_failover.sh gates
// on exactly that split.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/loadgen"
	"github.com/ddgms/ddgms/internal/router"
	"github.com/ddgms/ddgms/internal/server"
	"github.com/ddgms/ddgms/internal/storage"
)

// benchCohort generates one synthetic cohort sized for fast replica
// bootstrap (the bench measures cutover, not initial sync).
func benchCohort(tb testing.TB, patients int) *storage.Table {
	tb.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = patients
	raw, err := discri.Generate(dcfg)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func listen(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// failoverNode is one serving node of the bench cluster: a platform in
// follow mode with its HTTP face.
type failoverNode struct {
	p   *core.Platform
	srv *httptest.Server
}

func (n *failoverNode) close() {
	if n.srv != nil {
		n.srv.Close()
	}
	n.p.Close()
}

// startFollowing puts the node's platform in follow mode so /query and
// /freshness answer; the warehouse keeps refreshing across the cutover.
func startFollowing(tb testing.TB, p *core.Platform) {
	tb.Helper()
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
	}); err != nil {
		tb.Fatal(err)
	}
}

// pollThroughFront posts body at path through the front every 20ms
// until a 2xx answers, returning the elapsed time since start. 429/503
// sheds and transport errors are the expected mid-cutover answers and
// are retried; the deadline turns a wedged cutover into a failure.
func pollThroughFront(tb testing.TB, front, path string, body []byte, start time.Time) time.Duration {
	tb.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Post(front+path, "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode < 300 {
				return time.Since(start)
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("front never routed %s after cutover (last err %v)", path, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// BenchmarkFailoverPromotion measures one kill-primary -> promote ->
// re-route cycle under live load. ns/op is the whole cycle including
// cluster construction; the headline numbers are the reported custom
// metrics (run with -benchtime 1x — promotion is one-way, so every
// iteration builds a fresh pair).
func BenchmarkFailoverPromotion(b *testing.B) {
	raw := benchCohort(b, 40)
	var ttwMS, ttfrMS, shed, errRate float64
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()

		// Node A: the initial primary, seeded with the cohort.
		pa := core.New(core.Config{DataDir: filepath.Join(dir, "a")})
		if err := pa.OpenStore(raw.Schema()); err != nil {
			b.Fatal(err)
		}
		if err := pa.Store().LoadTable(raw); err != nil {
			b.Fatal(err)
		}
		startFollowing(b, pa)
		lnA := listen(b)
		if err := pa.AttachPrimary(core.ReplicateListenConfig{
			Listener:       lnA,
			EpochDir:       filepath.Join(dir, "a-epoch"),
			HeartbeatEvery: 20 * time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
		a := &failoverNode{p: pa, srv: httptest.NewServer(server.New(pa))}

		// Node B: the replica that will be promoted mid-run.
		pb := core.New(core.Config{DataDir: filepath.Join(dir, "b")})
		if err := pb.OpenStore(raw.Schema()); err != nil {
			b.Fatal(err)
		}
		if err := pb.AttachReplica(core.ReplicateFromConfig{
			PrimaryAddr: lnA.Addr().String(),
			ID:          "bench-replica",
			CursorDir:   filepath.Join(dir, "b-cursor"),
		}); err != nil {
			b.Fatal(err)
		}
		select {
		case <-pb.ReplicaReady():
		case <-time.After(30 * time.Second):
			b.Fatal("replica never synced")
		}
		startFollowing(b, pb)
		nodeB := &failoverNode{p: pb, srv: httptest.NewServer(server.New(pb))}

		// The routing front over both nodes, probing fast enough that
		// cutover latency is dominated by the promotion itself.
		rt, err := router.New(router.Config{
			Backends:     []string{a.srv.URL, nodeB.srv.URL},
			PollEvery:    50 * time.Millisecond,
			MaxStaleness: 5 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		front := httptest.NewServer(rt)

		// The interactive mix runs open-loop through the front for the
		// whole cycle, straddling the kill.
		sc, ok := loadgen.Builtin("interactive")
		if !ok {
			b.Fatal("interactive scenario missing")
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var wg sync.WaitGroup
		var rep *loadgen.Report
		var runErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, runErr = loadgen.Run(ctx, loadgen.RunConfig{
				Target:       front.URL,
				Scenario:     sc,
				Duration:     4 * time.Second,
				RateOverride: 40,
				SkipScrape:   true,
			})
		}()

		// Steady state first, then the primary dies: HTTP face and
		// replication listener both go away at once.
		time.Sleep(1200 * time.Millisecond)
		a.srv.Close()
		a.srv = nil
		pa.StopReplication()
		killedAt := time.Now()

		// The operator cuts the replica over with one request against the
		// node itself (promotion is deliberately not routable).
		promoteBody, _ := json.Marshal(map[string]string{"listen": "127.0.0.1:0"})
		resp, err := http.Post(nodeB.srv.URL+"/promote", "application/json", bytes.NewReader(promoteBody))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /promote: status %d", resp.StatusCode)
		}
		resp.Body.Close()

		// Time to writable and time to first routed read, both measured
		// from the kill, both through the front (so they include the
		// router's probe-driven primary re-resolution).
		findingBody, _ := json.Marshal(map[string]string{
			"topic":     "failover",
			"statement": fmt.Sprintf("cutover bench iteration %d", i),
			"source":    "bench",
		})
		queryBody, _ := json.Marshal(map[string]string{
			"mdx": "SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures]",
		})
		var ttw, ttfr time.Duration
		var pollWG sync.WaitGroup
		pollWG.Add(2)
		go func() {
			defer pollWG.Done()
			ttw = pollThroughFront(b, front.URL, "/findings", findingBody, killedAt)
		}()
		go func() {
			defer pollWG.Done()
			ttfr = pollThroughFront(b, front.URL, "/query", queryBody, killedAt)
		}()
		pollWG.Wait()

		wg.Wait()
		cancel()
		if runErr != nil {
			b.Fatal(runErr)
		}
		if cl := rt.Cluster(); cl.Failovers < 1 {
			b.Fatalf("router never observed the failover: %+v", cl)
		}
		ttwMS += float64(ttw.Nanoseconds()) / 1e6
		ttfrMS += float64(ttfr.Nanoseconds()) / 1e6
		shed += rep.ShedRate
		errRate += rep.ErrorRate

		front.Close()
		rt.Close()
		nodeB.close()
		a.close()
	}
	n := float64(b.N)
	b.ReportMetric(ttwMS/n, "ttw-ms")
	b.ReportMetric(ttfrMS/n, "ttfr-ms")
	b.ReportMetric(shed/n, "shed-rate")
	b.ReportMetric(errRate/n, "err-rate")
}

// BenchmarkUnattendedFailover is the autonomous variant: nobody posts
// /promote. A three-node cluster (an election needs a strict majority
// of the nodes, so two nodes can never elect) sits behind a stateless
// front; the primary is killed mid-run and the measured ttw/ttfr
// include the followers' watchdogs detecting the silence (RehomeAfter
// 150ms, polled every 30ms), the vote round, the promotion, and the
// front's next probe. Run with -benchtime 1x..3x; every iteration
// builds a fresh cluster.
func BenchmarkUnattendedFailover(b *testing.B) {
	raw := benchCohort(b, 40)
	var ttwMS, ttfrMS, shed, errRate float64
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()

		// Node A: the initial primary, seeded with the cohort.
		pa := core.New(core.Config{DataDir: filepath.Join(dir, "a")})
		if err := pa.OpenStore(raw.Schema()); err != nil {
			b.Fatal(err)
		}
		if err := pa.Store().LoadTable(raw); err != nil {
			b.Fatal(err)
		}
		startFollowing(b, pa)
		lnA := listen(b)
		if err := pa.AttachPrimary(core.ReplicateListenConfig{
			Listener:       lnA,
			EpochDir:       filepath.Join(dir, "a-cursor"),
			HeartbeatEvery: 20 * time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
		a := &failoverNode{p: pa, srv: httptest.NewServer(server.New(pa))}

		// Nodes B and C: election candidates, each with the replication
		// listener it binds if elected.
		replica := func(name string) *failoverNode {
			p := core.New(core.Config{DataDir: filepath.Join(dir, name)})
			if err := p.OpenStore(raw.Schema()); err != nil {
				b.Fatal(err)
			}
			if err := p.AttachReplica(core.ReplicateFromConfig{
				PrimaryAddr: lnA.Addr().String(),
				ID:          name,
				CursorDir:   filepath.Join(dir, name+"-cursor"),
			}); err != nil {
				b.Fatal(err)
			}
			select {
			case <-p.ReplicaReady():
			case <-time.After(30 * time.Second):
				b.Fatalf("replica %s never synced", name)
			}
			startFollowing(b, p)
			p.SetPromoteListen("127.0.0.1:0")
			return &failoverNode{p: p, srv: httptest.NewServer(server.New(p))}
		}
		nodeB := replica("b")
		nodeC := replica("c")
		urls := []string{a.srv.URL, nodeB.srv.URL, nodeC.srv.URL}
		for i, n := range []*failoverNode{a, nodeB, nodeC} {
			name := string(rune('a' + i))
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			if err := n.p.EnableSelfHeal(core.SelfHealConfig{
				Peers:        peers,
				ID:           name,
				CursorDir:    filepath.Join(dir, name+"-cursor"),
				WatchEvery:   30 * time.Millisecond,
				RehomeAfter:  150 * time.Millisecond,
				BackoffMin:   25 * time.Millisecond,
				ProbeTimeout: 500 * time.Millisecond,
			}); err != nil {
				b.Fatal(err)
			}
		}

		rt, err := router.New(router.Config{
			Backends:     urls,
			PollEvery:    30 * time.Millisecond,
			MaxStaleness: 5 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		front := httptest.NewServer(rt)

		sc, ok := loadgen.Builtin("interactive")
		if !ok {
			b.Fatal("interactive scenario missing")
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var wg sync.WaitGroup
		var rep *loadgen.Report
		var runErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, runErr = loadgen.Run(ctx, loadgen.RunConfig{
				Target:       front.URL,
				Scenario:     sc,
				Duration:     4 * time.Second,
				RateOverride: 40,
				SkipScrape:   true,
			})
		}()

		// Steady state, then the primary dies — and nothing else happens.
		// Recovery is entirely the surviving nodes' problem.
		time.Sleep(1200 * time.Millisecond)
		a.srv.Close()
		a.srv = nil
		pa.StopReplication()
		killedAt := time.Now()

		findingBody, _ := json.Marshal(map[string]string{
			"topic":     "failover",
			"statement": fmt.Sprintf("unattended cutover bench iteration %d", i),
			"source":    "bench",
		})
		queryBody, _ := json.Marshal(map[string]string{
			"mdx": "SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures]",
		})
		var ttw, ttfr time.Duration
		var pollWG sync.WaitGroup
		pollWG.Add(2)
		go func() {
			defer pollWG.Done()
			ttw = pollThroughFront(b, front.URL, "/findings", findingBody, killedAt)
		}()
		go func() {
			defer pollWG.Done()
			ttfr = pollThroughFront(b, front.URL, "/query", queryBody, killedAt)
		}()
		pollWG.Wait()

		wg.Wait()
		cancel()
		if runErr != nil {
			b.Fatal(runErr)
		}
		if cl := rt.Cluster(); cl.Failovers != 1 || cl.Epoch < 2 {
			b.Fatalf("front did not observe exactly one autonomous failover: %+v", cl)
		}
		ttwMS += float64(ttw.Nanoseconds()) / 1e6
		ttfrMS += float64(ttfr.Nanoseconds()) / 1e6
		shed += rep.ShedRate
		errRate += rep.ErrorRate

		front.Close()
		rt.Close()
		nodeC.close()
		nodeB.close()
		a.close()
	}
	n := float64(b.N)
	b.ReportMetric(ttwMS/n, "ttw-ms")
	b.ReportMetric(ttfrMS/n, "ttfr-ms")
	b.ReportMetric(shed/n, "shed-rate")
	b.ReportMetric(errRate/n, "err-rate")
}
