package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Endpoint names a request kind in a scenario mix. Each maps onto one
// server route.
const (
	EndpointMDX       = "mdx"       // POST /query
	EndpointSQL       = "sql"       // POST /sql
	EndpointFlatquery = "flatquery" // POST /flatquery
	EndpointFreshness = "freshness" // GET /freshness
)

// knownEndpoints orders the endpoint set for deterministic iteration.
var knownEndpoints = []string{EndpointMDX, EndpointSQL, EndpointFlatquery, EndpointFreshness}

// Arrival process names.
const (
	ArrivalConstant = "constant" // evenly spaced arrivals at RPS
	ArrivalPoisson  = "poisson"  // exponential inter-arrivals, mean rate RPS
	ArrivalRamp     = "ramp"     // deterministic spacing, rate climbing RPS -> EndRPS
)

// Arrival describes when requests are offered.
type Arrival struct {
	// Process is constant, poisson or ramp.
	Process string `json:"process"`
	// RPS is the offered rate (constant, poisson) or the starting rate
	// (ramp). Must be positive.
	RPS float64 `json:"rps"`
	// EndRPS is the final rate of a ramp; ignored otherwise.
	EndRPS float64 `json:"end_rps,omitempty"`
}

// MixEntry weights one endpoint within a scenario.
type MixEntry struct {
	Endpoint string  `json:"endpoint"`
	Weight   float64 `json:"weight"`
}

// Scenario is one reproducible workload description. The zero duration
// means "use the runner's duration"; everything else is fixed by the
// config so two runs of the same scenario at the same seed offer the
// same schedule of the same requests.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives the arrival process (poisson), the endpoint choice
	// sequence and the per-request query parameters. Zero means seed 1.
	Seed    int64      `json:"seed,omitempty"`
	Arrival Arrival    `json:"arrival"`
	Mix     []MixEntry `json:"mix"`
	// DurationS is the default run length in seconds; the runner may
	// override it.
	DurationS float64 `json:"duration_s,omitempty"`
}

// seed returns the effective seed (zero defaults to 1 so the zero
// value is still reproducible).
func (s Scenario) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// Validate checks the scenario is well formed, returning the first
// problem found.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: scenario needs a name")
	}
	switch s.Arrival.Process {
	case ArrivalConstant, ArrivalPoisson:
		if s.Arrival.EndRPS != 0 {
			return fmt.Errorf("loadgen: scenario %q: end_rps only applies to ramp arrivals", s.Name)
		}
	case ArrivalRamp:
		if s.Arrival.EndRPS <= 0 {
			return fmt.Errorf("loadgen: scenario %q: ramp needs a positive end_rps", s.Name)
		}
	case "":
		return fmt.Errorf("loadgen: scenario %q: missing arrival process (constant, poisson or ramp)", s.Name)
	default:
		return fmt.Errorf("loadgen: scenario %q: unknown arrival process %q (want constant, poisson or ramp)",
			s.Name, s.Arrival.Process)
	}
	if s.Arrival.RPS <= 0 {
		return fmt.Errorf("loadgen: scenario %q: arrival rps must be positive, got %v", s.Name, s.Arrival.RPS)
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("loadgen: scenario %q: empty endpoint mix", s.Name)
	}
	total := 0.0
	seen := map[string]bool{}
	for _, m := range s.Mix {
		known := false
		for _, e := range knownEndpoints {
			if m.Endpoint == e {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("loadgen: scenario %q: unknown endpoint %q (want one of %v)",
				s.Name, m.Endpoint, knownEndpoints)
		}
		if seen[m.Endpoint] {
			return fmt.Errorf("loadgen: scenario %q: endpoint %q listed twice", s.Name, m.Endpoint)
		}
		seen[m.Endpoint] = true
		if m.Weight <= 0 {
			return fmt.Errorf("loadgen: scenario %q: endpoint %q weight must be positive, got %v",
				s.Name, m.Endpoint, m.Weight)
		}
		total += m.Weight
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: scenario %q: mix weights sum to %v", s.Name, total)
	}
	if s.DurationS < 0 {
		return fmt.Errorf("loadgen: scenario %q: negative duration_s", s.Name)
	}
	return nil
}

// Duration returns the scenario's default run length, or fallback when
// the config leaves it unset.
func (s Scenario) Duration(fallback time.Duration) time.Duration {
	if s.DurationS > 0 {
		return time.Duration(s.DurationS * float64(time.Second))
	}
	return fallback
}

// ParseScenario decodes one scenario from JSON. Decoding is strict —
// unknown fields are errors, so a typoed config fails loudly instead of
// silently running the default workload — and the result is validated.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("loadgen: parsing scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// builtins are the named scenario mixes shipped with the tool. Two
// deliberately different shapes cover both the interactive (cheap,
// bursty, poisson) and the analytic (heavier queries, steady rate) faces
// of the workload; rampup walks the offered rate up within a single run
// to watch a server cross its capacity.
var builtins = map[string]Scenario{
	"interactive": {
		Name:    "interactive",
		Seed:    1,
		Arrival: Arrival{Process: ArrivalPoisson, RPS: 50},
		Mix: []MixEntry{
			{Endpoint: EndpointMDX, Weight: 0.50},
			{Endpoint: EndpointFlatquery, Weight: 0.20},
			{Endpoint: EndpointSQL, Weight: 0.20},
			{Endpoint: EndpointFreshness, Weight: 0.10},
		},
	},
	"analytics": {
		Name:    "analytics",
		Seed:    1,
		Arrival: Arrival{Process: ArrivalConstant, RPS: 50},
		Mix: []MixEntry{
			{Endpoint: EndpointMDX, Weight: 0.45},
			{Endpoint: EndpointSQL, Weight: 0.45},
			{Endpoint: EndpointFlatquery, Weight: 0.10},
		},
	},
	"rampup": {
		Name:    "rampup",
		Seed:    1,
		Arrival: Arrival{Process: ArrivalRamp, RPS: 10, EndRPS: 200},
		Mix: []MixEntry{
			{Endpoint: EndpointMDX, Weight: 0.60},
			{Endpoint: EndpointSQL, Weight: 0.30},
			{Endpoint: EndpointFreshness, Weight: 0.10},
		},
	},
}

// Builtin returns a named builtin scenario.
func Builtin(name string) (Scenario, bool) {
	s, ok := builtins[name]
	return s, ok
}

// Builtins lists the builtin scenario names, sorted.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
