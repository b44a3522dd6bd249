package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/ddgms/ddgms/internal/govern"
)

func TestSQLEndpoint(t *testing.T) {
	ts := testServer(t)
	var doc tableDoc
	code := postJSON(t, ts.URL+"/sql", map[string]string{
		"sql": "SELECT Gender, count(*) AS n FROM visits GROUP BY Gender ORDER BY Gender",
	}, &doc)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(doc.Columns) != 2 || doc.Columns[0] != "Gender" {
		t.Fatalf("columns = %v", doc.Columns)
	}
	if len(doc.Rows) == 0 {
		t.Fatal("no rows from GROUP BY Gender")
	}
	// The synthetic cohort has both genders; counts must be positive
	// numbers (JSON decodes them as float64).
	for _, row := range doc.Rows {
		n, ok := row[1].(float64)
		if !ok || n <= 0 {
			t.Fatalf("bad count in row %v", row)
		}
	}
}

func TestSQLEndpointErrors(t *testing.T) {
	ts := testServer(t)
	var errDoc map[string]string
	if code := postJSON(t, ts.URL+"/sql", map[string]string{}, &errDoc); code != http.StatusBadRequest {
		t.Fatalf("missing sql: status = %d", code)
	}
	if code := postJSON(t, ts.URL+"/sql", map[string]string{"sql": "DROP TABLE visits"}, &errDoc); code != http.StatusBadRequest {
		t.Fatalf("unsupported statement: status = %d, err = %v", code, errDoc)
	}
	if code := postJSON(t, ts.URL+"/sql", map[string]string{"sql": "SELECT x FROM nope"}, &errDoc); code != http.StatusBadRequest {
		t.Fatalf("unknown table: status = %d", code)
	}
}

func TestFlatQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	var doc map[string]any
	code := postJSON(t, ts.URL+"/flatquery", map[string]any{
		"rows": []string{"Gender"},
		"agg":  "count",
	}, &doc)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body = %v", code, doc)
	}
	// The exact result shape is flatquery's own concern — the endpoint
	// test only cares that a grouped result came back.
	if doc == nil {
		t.Fatal("empty response document")
	}
}

func TestFlatQueryEndpointErrors(t *testing.T) {
	ts := testServer(t)
	var errDoc map[string]string
	if code := postJSON(t, ts.URL+"/flatquery", map[string]any{
		"rows": []string{"Gender"}, "agg": "transmogrify",
	}, &errDoc); code != http.StatusBadRequest {
		t.Fatalf("unknown agg: status = %d", code)
	}
	if code := postJSON(t, ts.URL+"/flatquery", map[string]any{
		"rows": []string{"NoSuchColumn"}, "agg": "count",
	}, &errDoc); code != http.StatusBadRequest {
		t.Fatalf("unknown column: status = %d, err = %v", code, errDoc)
	}
}

// Both baseline endpoints run under the same governance pipeline as
// /query: a saturated admission queue sheds them with 429 and a
// Retry-After header.
func TestBaselineEndpointsGoverned(t *testing.T) {
	p := testPlatform(t)
	slow := &slowPlatform{Platform: p, delay: 200 * time.Millisecond}
	srv := New(slow, WithAdmission(govern.NewAdmission(1, 0, 0)))
	ts := serveHandler(t, srv)

	// Occupy the only slot with a slow MDX query.
	release := make(chan struct{})
	go func() {
		defer close(release)
		postJSON(t, ts.URL+"/query", map[string]string{
			"mdx": "SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS FROM [MedicalMeasures]",
		}, nil)
	}()
	time.Sleep(50 * time.Millisecond)

	for _, path := range []string{"/sql", "/flatquery"} {
		body := map[string]any{"sql": "SELECT Gender FROM visits"}
		if path == "/flatquery" {
			body = map[string]any{"rows": []string{"Gender"}, "agg": "count"}
		}
		resp := doPost(t, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s while saturated: status = %d, want 429", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s shed without Retry-After header", path)
		}
	}
	<-release
}

// Draining answers 503 and, like every shed, tells clients when to
// come back.
func TestDrainSheds503WithRetryAfter(t *testing.T) {
	srv := New(testPlatform(t))
	ts := serveHandler(t, srv)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := doPost(t, ts.URL+"/query", map[string]string{"mdx": "SELECT"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After header")
	}
}

// Oversized bodies on the baseline endpoints answer 413, same as
// /query.
func TestBaselineBodyCap(t *testing.T) {
	srv := New(testPlatform(t))
	ts := serveHandler(t, srv)
	huge := append([]byte(`{"sql": "`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/sql", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", resp.StatusCode)
	}
}

// doPost is postJSON but returns the raw response so headers are
// inspectable.
func doPost(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
