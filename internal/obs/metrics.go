package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// usable; the Registry constructors return registered instances.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (d must be non-negative semantics-wise; the type enforces
// it).
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by d (negative d decrements).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histShards is the stripe count of a Histogram. Small enough that the
// read-side merge is cheap, large enough that concurrent observers
// almost always find a free shard on the first TryLock.
const histShards = 8

type histShard struct {
	mu     sync.Mutex
	counts []uint64
	sum    float64
	count  uint64
}

// Histogram records a distribution into cumulative buckets. Writes are
// striped across histShards shards; reads merge the shards exactly
// (bucket counts, sum and count are plain sums), so the snapshot equals
// what an unsharded histogram would hold.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	rr     atomic.Uint32
	shards [histShards]histShard
}

// Observe records one value. It takes a striped shard lock: starting
// from a rotating index it TryLocks each shard and falls back to a
// blocking Lock only if all stripes are busy.
func (h *Histogram) Observe(v float64) {
	start := int(h.rr.Add(1))
	for i := 0; i < histShards; i++ {
		sh := &h.shards[(start+i)%histShards]
		if sh.mu.TryLock() {
			sh.observe(h.bounds, v)
			sh.mu.Unlock()
			return
		}
	}
	sh := &h.shards[start%histShards]
	sh.mu.Lock()
	sh.observe(h.bounds, v)
	sh.mu.Unlock()
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

func (sh *histShard) observe(bounds []float64, v float64) {
	if sh.counts == nil {
		sh.counts = make([]uint64, len(bounds)+1)
	}
	i := sort.SearchFloat64s(bounds, v) // first bound >= v (le semantics)
	sh.counts[i]++
	sh.sum += v
	sh.count++
}

// HistSnapshot is the exact merged state of a Histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; the final implicit bucket is +Inf
	Counts []uint64  // len(Bounds)+1, per-bucket (non-cumulative)
	Sum    float64
	Count  uint64
}

// Snapshot merges the shards exactly.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.bounds)+1)}
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for b, c := range sh.counts {
			s.Counts[b] += c
		}
		s.Sum += sh.sum
		s.Count += sh.count
		sh.mu.Unlock()
	}
	return s
}

// DefBuckets is a general-purpose latency bucketing in seconds, from
// 100µs to ~30s.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

// CountBuckets is a power-of-two bucketing for small cardinalities
// (worker fan-out, retry counts).
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// metricKind tags a family for exposition.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// family is one registered metric name: either a single unlabeled
// instrument or a labeled vector of children.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram families only

	single any // *Counter / *Gauge / *Histogram, unlabeled families

	mu       sync.Mutex
	children map[string]any // label-tuple key -> instrument
	order    []string       // child keys in first-use order
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Families expose in registration order and
// labeled children in sorted label order, so output is deterministic.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level metric
// registers into.
func Default() *Registry { return defaultRegistry }

// register is get-or-create: re-registering the same name with the same
// shape returns the existing family; a shape mismatch panics, because it
// means two subsystems claim one name for different things.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds}
	if len(labels) > 0 {
		f.children = make(map[string]any)
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, counterKind, nil, nil)
	if f.single == nil {
		f.single = &Counter{}
	}
	return f.single.(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, gaugeKind, nil, nil)
	if f.single == nil {
		f.single = &Gauge{}
	}
	return f.single.(*Gauge)
}

// Histogram registers (or returns) an unlabeled histogram with the
// given ascending upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, histogramKind, nil, bounds)
	if f.single == nil {
		f.single = &Histogram{bounds: bounds}
	}
	return f.single.(*Histogram)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterKind, labels, nil)}
}

// WithLabelValues returns the child counter for one label-value tuple,
// creating it on first use. Resolve children once on hot paths.
func (v *CounterVec) WithLabelValues(vals ...string) *Counter {
	return v.f.child(vals, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeKind, labels, nil)}
}

// WithLabelValues returns the child gauge for one label-value tuple,
// creating it on first use. Resolve children once on hot paths.
func (v *GaugeVec) WithLabelValues(vals ...string) *Gauge {
	return v.f.child(vals, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, histogramKind, labels, bounds)}
}

// WithLabelValues returns the child histogram for one label-value
// tuple, creating it on first use.
func (v *HistogramVec) WithLabelValues(vals ...string) *Histogram {
	f := v.f
	return f.child(vals, func() any { return &Histogram{bounds: f.bounds} }).(*Histogram)
}

// child interns the instrument for one label tuple.
func (f *family) child(vals []string, make func() any) any {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = make()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}
