package loadgen

import (
	"strings"
	"testing"
)

func TestParseScenarioRoundTrip(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"name": "custom",
		"seed": 7,
		"arrival": {"process": "poisson", "rps": 25},
		"mix": [
			{"endpoint": "mdx", "weight": 0.7},
			{"endpoint": "sql", "weight": 0.3}
		],
		"duration_s": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom" || sc.Seed != 7 || sc.Arrival.RPS != 25 || len(sc.Mix) != 2 {
		t.Fatalf("bad decode: %+v", sc)
	}
}

// A typoed key must fail loudly, not silently fall back to defaults:
// a scenario that decodes to the wrong workload produces a
// plausible-looking but meaningless report.
func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	_, err := ParseScenario([]byte(`{
		"name": "typo",
		"arrival": {"process": "constant", "rsp": 25},
		"mix": [{"endpoint": "mdx", "weight": 1}]
	}`))
	if err == nil || !strings.Contains(err.Error(), "rsp") {
		t.Fatalf("want unknown-field error naming \"rsp\", got %v", err)
	}
}

func TestScenarioValidate(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name:    "ok",
			Arrival: Arrival{Process: ArrivalConstant, RPS: 10},
			Mix:     []MixEntry{{Endpoint: EndpointMDX, Weight: 1}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "needs a name"},
		{"missing process", func(s *Scenario) { s.Arrival.Process = "" }, "missing arrival process"},
		{"unknown process", func(s *Scenario) { s.Arrival.Process = "weibull" }, "unknown arrival process"},
		{"zero rps", func(s *Scenario) { s.Arrival.RPS = 0 }, "rps must be positive"},
		{"end_rps on constant", func(s *Scenario) { s.Arrival.EndRPS = 50 }, "end_rps only applies to ramp"},
		{"ramp without end_rps", func(s *Scenario) { s.Arrival.Process = ArrivalRamp }, "positive end_rps"},
		{"empty mix", func(s *Scenario) { s.Mix = nil }, "empty endpoint mix"},
		{"unknown endpoint", func(s *Scenario) { s.Mix[0].Endpoint = "graphql" }, "unknown endpoint"},
		{"duplicate endpoint", func(s *Scenario) {
			s.Mix = append(s.Mix, MixEntry{Endpoint: EndpointMDX, Weight: 1})
		}, "listed twice"},
		{"non-positive weight", func(s *Scenario) { s.Mix[0].Weight = 0 }, "weight must be positive"},
		{"negative duration", func(s *Scenario) { s.DurationS = -1 }, "negative duration_s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestBuiltinsValidate(t *testing.T) {
	names := Builtins()
	if len(names) < 2 {
		t.Fatalf("want at least two builtin scenarios, got %v", names)
	}
	for _, n := range names {
		sc, ok := Builtin(n)
		if !ok {
			t.Fatalf("Builtins listed %q but Builtin(%q) missing", n, n)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("builtin %q invalid: %v", n, err)
		}
	}
}

// The request generator is part of the reproducibility contract: same
// seed, same endpoint sequence, same bodies.
func TestRequestGenDeterministic(t *testing.T) {
	g1, g2 := newRequestGen(5), newRequestGen(5)
	for i := 0; i < 50; i++ {
		for _, ep := range knownEndpoints {
			a, b := g1.next(ep), g2.next(ep)
			if a.path != b.path || string(a.body) != string(b.body) {
				t.Fatalf("seeded generators diverged at %d/%s:\n%s\nvs\n%s", i, ep, a.body, b.body)
			}
		}
	}
}

func TestMixPickerHonoursWeights(t *testing.T) {
	mix := []MixEntry{
		{Endpoint: EndpointMDX, Weight: 0.8},
		{Endpoint: EndpointSQL, Weight: 0.2},
	}
	p := newMixPicker(mix, 3)
	counts := map[string]int{}
	const n = 10_000
	for i := 0; i < n; i++ {
		counts[p.pick()]++
	}
	frac := float64(counts[EndpointMDX]) / n
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("mdx drawn %.3f of the time, want ~0.80", frac)
	}
}
