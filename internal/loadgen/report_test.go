package loadgen

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// Scalar oracle: nearest-rank percentile computed the obvious O(n)
// way, against which the production path is checked on random inputs.
func oraclePercentile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func TestPercentileDurationAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
		}
		for _, q := range []float64{1, 50, 90, 95, 99, 99.9, 100} {
			got := PercentileDuration(ds, q)
			want := oraclePercentile(ds, q)
			if got != want {
				t.Fatalf("trial %d n=%d q=%v: got %v, want %v", trial, n, q, got, want)
			}
		}
	}
}

func TestPercentileDurationEdges(t *testing.T) {
	if got := PercentileDuration(nil, 99); got != 0 {
		t.Fatalf("empty slice: got %v, want 0", got)
	}
	one := []time.Duration{7 * time.Millisecond}
	if got := PercentileDuration(one, 50); got != 7*time.Millisecond {
		t.Fatalf("single sample p50: got %v", got)
	}
	// The input must not be mutated — callers hand over live slices.
	ds := []time.Duration{3, 1, 2}
	PercentileDuration(ds, 99)
	if ds[0] != 3 || ds[1] != 1 || ds[2] != 2 {
		t.Fatalf("input mutated: %v", ds)
	}
}

func TestBuildReportClassification(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	samples := []sample{
		{endpoint: "mdx", status: 200, latency: ms(10)},
		{endpoint: "mdx", status: 200, latency: ms(20)},
		{endpoint: "mdx", status: 429, latency: ms(1)},
		{endpoint: "sql", status: 503, latency: ms(1)},
		{endpoint: "sql", status: 422, latency: ms(5)},
		{endpoint: "sql", status: 504, latency: ms(100)},
		{endpoint: "sql", status: 500, latency: ms(2)},
		{endpoint: "flatquery", errored: true},
		{endpoint: "freshness", status: 404, latency: ms(1)},
		{endpoint: "mdx", status: 200, latency: ms(30)},
	}
	sc := Scenario{Name: "t", Arrival: Arrival{Process: ArrivalConstant, RPS: 10}}
	rep := buildReport(sc, 2*time.Second, 5, samples, nil)

	if rep.Overall.Requests != 10 || rep.Overall.OK != 3 {
		t.Fatalf("census: requests=%d ok=%d", rep.Overall.Requests, rep.Overall.OK)
	}
	// Shed is 429+503 over all sent; 422 and 5xx are tracked apart.
	if want := 2.0 / 10; rep.ShedRate != want {
		t.Fatalf("shed rate %v, want %v", rep.ShedRate, want)
	}
	if want := 1.0 / 10; rep.BudgetRate != want {
		t.Fatalf("budget rate %v, want %v", rep.BudgetRate, want)
	}
	// Errors: one transport + 504 + 500 (503 counts as shed, not error).
	if want := 3.0 / 10; rep.ErrorRate != want {
		t.Fatalf("error rate %v, want %v", rep.ErrorRate, want)
	}
	if want := 3.0 / 2; rep.AchievedRPS != want {
		t.Fatalf("achieved %v, want %v (only 2xx count)", rep.AchievedRPS, want)
	}
	if rep.Endpoints["mdx"].OK != 3 || rep.Endpoints["sql"].OK != 0 {
		t.Fatalf("per-endpoint split wrong: %+v", rep.Endpoints)
	}
	if rep.Endpoints["flatquery"].TransportErrors != 1 {
		t.Fatalf("transport error not attributed: %+v", rep.Endpoints["flatquery"])
	}
	if s := rep.String(); !strings.Contains(s, "offered 5.0 rps") {
		t.Fatalf("summary line: %s", s)
	}
}

func TestParseFamilySums(t *testing.T) {
	exposition := `# HELP ddgms_govern_shed_total Requests shed.
# TYPE ddgms_govern_shed_total counter
ddgms_govern_shed_total{reason="queue_full"} 3
ddgms_govern_shed_total{reason="wait_timeout"} 2
ddgms_exec_rows_scanned_total 1200
ddgms_unrelated_total 999
`
	sums, err := parseFamilySums(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if sums["ddgms_govern_shed_total"] != 5 {
		t.Fatalf("shed sum %v, want 5 (labels summed)", sums["ddgms_govern_shed_total"])
	}
	if sums["ddgms_exec_rows_scanned_total"] != 1200 {
		t.Fatalf("rows sum %v", sums["ddgms_exec_rows_scanned_total"])
	}
	if _, ok := sums["ddgms_unrelated_total"]; ok {
		t.Fatal("unrelated family leaked into sums")
	}
}
