package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RunConfig parameterises one load-generation run.
type RunConfig struct {
	// Target is the base URL of the server under test,
	// e.g. "http://127.0.0.1:8360".
	Target string
	// Scenario fixes the workload; it must Validate.
	Scenario Scenario
	// Duration overrides the scenario's duration_s; zero falls back to
	// the scenario's, and then to 5s.
	Duration time.Duration
	// RateOverride, when positive, re-rates the arrival process (ramps
	// scale proportionally); cmd/loadgen -rps sets it.
	RateOverride float64
	// Client is the HTTP client to fire with; nil uses a pooled default
	// sized for open-loop bursts.
	Client *http.Client
	// SkipScrape disables the before/after /metrics scrape.
	SkipScrape bool
}

// defaultClient builds a client that does not strangle the open loop:
// the default transport caps idle conns per host at 2, which would
// serialise bursts behind connection churn.
func defaultClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 512
	tr.MaxIdleConnsPerHost = 512
	return &http.Client{Transport: tr}
}

// Run drives one scenario at one offered rate. It is open-loop: the
// arrival schedule is materialised up front from the scenario seed and
// every request fires at its scheduled instant in its own goroutine,
// whether or not earlier requests have answered. ctx cancellation
// stops offering new requests (already-fired ones run to completion).
func Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: RunConfig.Target is required")
	}
	base := strings.TrimRight(cfg.Target, "/")
	d := cfg.Duration
	if d <= 0 {
		d = cfg.Scenario.Duration(5 * time.Second)
	}
	arrival := cfg.Scenario.Arrival
	if cfg.RateOverride > 0 {
		arrival = arrival.withRate(cfg.RateOverride)
	}
	seed := cfg.Scenario.seed()
	schedule, err := arrival.Schedule(d, seed)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = defaultClient()
	}

	// Seeded choices: endpoint sequence and query parameters come from
	// generators derived from (not equal to) the arrival seed, so the
	// three random streams cannot alias.
	picker := newMixPicker(cfg.Scenario.Mix, seed+1)
	gen := newRequestGen(seed + 2)
	// Requests are materialised up front too — body generation must not
	// eat into inter-arrival gaps at high rates.
	reqs := make([]request, len(schedule))
	for i := range schedule {
		reqs[i] = gen.next(picker.pick())
	}

	var before map[string]float64
	if !cfg.SkipScrape {
		before, _ = scrapeMetrics(client, base)
	}

	metricOfferedRPS.Set(OfferedRPS(schedule, d))
	samples := make([]sample, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range schedule {
		if wait := off - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			samples = samples[:i]
			reqs = reqs[:i]
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i] = fire(ctx, client, base, reqs[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < d {
		elapsed = d
	}

	var srv *ServerDelta
	if !cfg.SkipScrape {
		if after, err := scrapeMetrics(client, base); err == nil {
			srv = deltaServer(before, after)
		}
	}
	rep := buildReport(cfg.Scenario, elapsed, OfferedRPS(schedule, d), samples, srv)
	metricAchievedRPS.Set(rep.AchievedRPS)
	return rep, nil
}

// fire sends one request and classifies the outcome.
func fire(ctx context.Context, client *http.Client, base string, r request) sample {
	s := sample{endpoint: r.endpoint}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		s.errored = true
		return s
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := client.Do(req)
	s.latency = time.Since(start)
	if err != nil {
		s.errored = true
		metricRequests.WithLabelValues(r.endpoint, "error").Inc()
		return s
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	metricRequests.WithLabelValues(r.endpoint, fmt.Sprint(resp.StatusCode)).Inc()
	metricLatencySeconds.WithLabelValues(r.endpoint).ObserveSince(start)
	return s
}

// mixPicker draws endpoints with the scenario's weights from its own
// seeded stream.
type mixPicker struct {
	rng     *rand.Rand
	cum     []float64
	entries []MixEntry
}

func newMixPicker(mix []MixEntry, seed int64) *mixPicker {
	p := &mixPicker{rng: rand.New(rand.NewSource(seed)), entries: mix}
	total := 0.0
	for _, m := range mix {
		total += m.Weight
		p.cum = append(p.cum, total)
	}
	return p
}

func (p *mixPicker) pick() string {
	x := p.rng.Float64() * p.cum[len(p.cum)-1]
	for i, c := range p.cum {
		if x < c {
			return p.entries[i].Endpoint
		}
	}
	return p.entries[len(p.entries)-1].Endpoint
}
