package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/ddgms/ddgms/internal/obs"
)

const genderMDX = `
	SELECT {[PersonalInformation].[Gender].MEMBERS} ON COLUMNS
	FROM [MedicalMeasures]`

// spanPaths flattens a span tree into slash-joined paths in start order,
// so a test can assert both which stages ran and what they nest under.
func spanPaths(d obs.SpanDoc, prefix string) []string {
	path := prefix + d.Name
	out := []string{path}
	for _, c := range d.Children {
		out = append(out, spanPaths(c, path+"/")...)
	}
	return out
}

// TestQueryTraceSpans: on every query route ?trace=1 must return a span
// tree covering the whole execution path, each stage under the layer
// that started it and the kernel's scan -> merge -> sort inside the
// route's group stage; without the flag the body carries no trace key.
func TestQueryTraceSpans(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		route string
		body  any
		want  []string
	}{
		{"/query", queryRequest{MDX: genderMDX}, []string{
			"query",
			"query/mdx.parse",
			"query/cube.encode",
			"query/cube.filter",
			"query/cube.group",
			"query/cube.group/exec.scan",
			"query/cube.group/exec.merge",
			"query/cube.group/exec.sort",
			"query/cube.assemble",
		}},
		{"/sql", sqlRequest{SQL: "SELECT Gender, count(*) AS n FROM visits GROUP BY Gender"}, []string{
			"query",
			"query/dgsql.parse",
			"query/dgsql.execute",
			"query/dgsql.execute/dgsql.group",
			"query/dgsql.execute/dgsql.group/exec.scan",
			"query/dgsql.execute/dgsql.group/exec.merge",
			"query/dgsql.execute/dgsql.group/exec.sort",
		}},
		{"/flatquery", flatQueryRequest{
			Rows:    []string{"Gender"},
			Filters: []flatFilterDoc{{Column: "DiabetesStatus", Values: []string{"Yes"}}},
		}, []string{
			"query",
			"query/flatquery.compile",
			"query/flatquery.group",
			"query/flatquery.group/exec.scan",
			"query/flatquery.group/exec.merge",
			"query/flatquery.group/exec.sort",
		}},
	} {
		t.Run(tc.route, func(t *testing.T) {
			var doc struct {
				Trace *obs.TraceDoc `json:"trace"`
			}
			if code := postJSON(t, ts.URL+tc.route+"?trace=1", tc.body, &doc); code != http.StatusOK {
				t.Fatalf("status = %d", code)
			}
			if doc.Trace == nil {
				t.Fatal("?trace=1 response has no trace")
			}
			root := doc.Trace.Root
			if got := spanPaths(root, ""); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("span tree =\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
			scan, _ := root.FindSpan("exec.scan")
			if scan.Attrs["rows"] == nil {
				t.Errorf("exec.scan has no rows annotation: %v", scan.Attrs)
			}
			for _, c := range root.Children {
				if c.DurationUS > doc.Trace.DurationUS {
					t.Errorf("%s %dus exceeds trace %dus", c.Name, c.DurationUS, doc.Trace.DurationUS)
				}
			}

			// Without the flag, no trace key rides on the response.
			var plain map[string]json.RawMessage
			if code := postJSON(t, ts.URL+tc.route, tc.body, &plain); code != http.StatusOK {
				t.Fatalf("untraced status = %d", code)
			}
			if _, ok := plain["trace"]; ok {
				t.Error("untraced response carries a trace key")
			}
		})
	}
}

// TestDebugTraces: every /query lands in the ring buffer, traced or not.
func TestDebugTraces(t *testing.T) {
	ts := testServer(t)
	if code := postJSON(t, ts.URL+"/query", queryRequest{MDX: genderMDX}, nil); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	var body struct {
		Traces []obs.TraceDoc `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &body); code != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", code)
	}
	if len(body.Traces) == 0 {
		t.Fatal("ring buffer empty after a query")
	}
	if body.Traces[0].Root.Name != "query" {
		t.Errorf("latest trace root = %q", body.Traces[0].Root.Name)
	}
	if body.Traces[0].Root.Attrs["mdx"] == nil {
		t.Error("trace root missing mdx annotation")
	}
}

// TestMetricsEndpoint: the exposition must cover the server, exec, oltp,
// etl and storage families after ordinary traffic.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	if code := postJSON(t, ts.URL+"/query", queryRequest{MDX: genderMDX}, nil); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`ddgms_http_requests_total{route="/query",code="200"}`,
		"# TYPE ddgms_http_request_seconds histogram",
		"ddgms_exec_rows_scanned_total",
		`ddgms_exec_kernel_invocations_total{path=`,
		"# TYPE ddgms_oltp_commits_total counter",
		"ddgms_oltp_wal_fsyncs_total",
		"# TYPE ddgms_etl_step_seconds histogram",
		"ddgms_cube_queries_total",
		"# TYPE ddgms_storage_column_bytes gauge",
		"\nddgms_storage_column_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestErrorCounter: 5xx responses must increment the error family, so
// error rates are visible without log scraping.
func TestErrorCounter(t *testing.T) {
	before := metricErrors.WithLabelValues("/query", "500").Value()
	panicsBefore := metricPanics.Value()

	quiet := log.New(io.Discard, "", 0)
	p := &panicPlatform{Platform: testPlatform(t)}
	ts := serveHandler(t, New(p, WithLogger(quiet)))
	if code := postJSON(t, ts.URL+"/query", queryRequest{MDX: "SELECT x"}, nil); code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if got := metricErrors.WithLabelValues("/query", "500").Value(); got != before+1 {
		t.Errorf("error counter = %d, want %d", got, before+1)
	}

	// A handler panic (outside the query goroutine) trips the recovery
	// middleware counter too.
	p2 := &panicPlatform{Platform: testPlatform(t), panicWarehouse: true}
	ts2 := serveHandler(t, New(p2, WithLogger(quiet)))
	if code := getJSON(t, ts2.URL+"/schema", nil); code != http.StatusInternalServerError {
		t.Fatalf("schema panic status = %d", code)
	}
	if got := metricPanics.Value(); got != panicsBefore+1 {
		t.Errorf("panic counter = %d, want %d", got, panicsBefore+1)
	}
}
