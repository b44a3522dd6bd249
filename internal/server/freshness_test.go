package server

import (
	"net/http"
	"path/filepath"
	"testing"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/refresh"
)

// followTestPlatform stands up a follow-mode platform over a durable
// store seeded with a small cohort, plus the cohort table for streaming
// more rows.
func followTestPlatform(t *testing.T) (*core.Platform, func()) {
	t.Helper()
	dcfg := discri.DefaultConfig()
	dcfg.Patients = 60
	raw, err := discri.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p := core.New(core.Config{DataDir: filepath.Join(dir, "store")})
	t.Cleanup(func() { p.Close() })
	if err := p.OpenStore(raw.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := p.Store().LoadTable(raw); err != nil {
		t.Fatal(err)
	}
	if err := p.StartFollow(core.FollowConfig{
		Pipeline: core.NewDiScRiPipeline(),
		Builder:  core.NewDiScRiBuilder(),
		Setup:    core.FinishDiScRiSetup,
	}); err != nil {
		t.Fatal(err)
	}
	commitOne := func() {
		tx := p.Store().Begin()
		if _, err := tx.Insert(oltp.Row(raw.Row(0))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return p, commitOne
}

func TestFreshnessEndpoint(t *testing.T) {
	p, commitOne := followTestPlatform(t)
	ts := serveHandler(t, New(p))

	var f refresh.Freshness
	if code := getJSON(t, ts.URL+"/freshness", &f); code != http.StatusOK {
		t.Fatalf("GET /freshness = %d, want 200", code)
	}
	if f.LagTx != 0 || f.AppliedCommits != f.StoreCommits {
		t.Fatalf("fresh follower reports lag: %+v", f)
	}
	if f.AppliedLSN.IsZero() || f.LiveRows == 0 {
		t.Fatalf("freshness payload missing bootstrap state: %+v", f)
	}

	// Unapplied commits must surface as transaction lag...
	commitOne()
	commitOne()
	if code := getJSON(t, ts.URL+"/freshness", &f); code != http.StatusOK {
		t.Fatalf("GET /freshness = %d, want 200", code)
	}
	if f.LagTx != 2 {
		t.Fatalf("lag_tx = %d after 2 unapplied commits, want 2", f.LagTx)
	}

	// ...and clear once the follower catches up.
	for {
		n, err := p.Refresh()
		if err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		if n == 0 {
			break
		}
	}
	if code := getJSON(t, ts.URL+"/freshness", &f); code != http.StatusOK {
		t.Fatalf("GET /freshness = %d, want 200", code)
	}
	if f.LagTx != 0 || f.AppliedCommits != f.StoreCommits {
		t.Fatalf("lag not cleared after drain: %+v", f)
	}

	// Queries against the follow-mode platform still serve.
	var out map[string]any
	if code := getJSON(t, ts.URL+"/schema", &out); code != http.StatusOK {
		t.Fatalf("GET /schema on follow platform = %d, want 200", code)
	}
}

func TestFreshnessNotFollowing(t *testing.T) {
	ts := testServer(t) // batch-mode platform: healthy, but nothing to report
	var body map[string]string
	if code := getJSON(t, ts.URL+"/freshness", &body); code != http.StatusNotFound {
		t.Fatalf("GET /freshness on batch platform = %d, want 404", code)
	}
	if body["error"] == "" {
		t.Fatal("404 body carries no error message")
	}
}
