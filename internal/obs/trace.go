package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Span is one timed stage of a trace: a name, a monotonic start and
// duration, optional key/value annotations and nested child spans.
//
// Every method is safe on a nil *Span and does nothing, and Start on a
// nil span returns nil — so instrumented code takes its optional parent
// from the context (SpanFromContext, StartSpan) unconditionally and pays
// only a nil check when tracing is off.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	d        time.Duration
	ended    bool
	attrs    []attr
	children []*Span
}

type attr struct {
	key string
	val any
}

// Start begins a child span. End it with End; children left running
// when the trace finishes are closed implicitly.
func (sp *Span) Start(name string) *Span {
	if sp == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	sp.mu.Lock()
	sp.children = append(sp.children, c)
	sp.mu.Unlock()
	return c
}

// End stops the span's clock (monotonic — wall-clock steps cannot
// produce negative durations). Second and later calls are no-ops, so
// deferred Ends compose with early returns.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.d = time.Since(sp.start)
		sp.ended = true
	}
	sp.mu.Unlock()
}

// Annotate attaches a key/value observation to the span (rows scanned,
// worker count, cache verdicts). Values must be JSON-encodable.
func (sp *Span) Annotate(key string, val any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, attr{key: key, val: val})
	sp.mu.Unlock()
}

// spanKey is the context key the current span rides under.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span: the
// parent every instrumented layer below hangs its stage spans under.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span ctx carries, or nil — which the
// whole Span API tolerates — when the request is not traced.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan begins a child of the span ctx carries and returns a
// context carrying the child, so stages started further down nest under
// it. On a span-less ctx it returns ctx itself and a nil span without
// allocating: an untraced request pays one context lookup and nil
// checks.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := SpanFromContext(ctx).Start(name)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// Trace is one query's span tree plus its identity in the ring buffer.
type Trace struct {
	tracer *Tracer
	seq    uint64
	root   *Span
}

// Root returns the trace's root span (nil for a nil trace).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Finish ends the root span and publishes the trace into its tracer's
// ring buffer. Unfinished descendant spans are ended implicitly with
// the duration they had accumulated.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.root.endTree()
	if tr.tracer != nil {
		tr.tracer.record(tr)
	}
}

func (sp *Span) endTree() {
	if sp == nil {
		return
	}
	sp.End()
	sp.mu.Lock()
	children := append([]*Span(nil), sp.children...)
	sp.mu.Unlock()
	for _, c := range children {
		c.endTree()
	}
}

// Tracer keeps the most recent finished traces in a bounded ring
// buffer. A nil *Tracer is valid and traces nothing.
type Tracer struct {
	mu   sync.Mutex
	ring []*Trace
	next int
	seq  uint64
}

// NewTracer creates a tracer retaining up to capacity finished traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Trace, capacity)}
}

// StartTrace begins a new trace whose root span has the given name.
// On a nil tracer it returns nil, which the whole Span API tolerates.
func (t *Tracer) StartTrace(name string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seq++
	seq := t.seq
	t.mu.Unlock()
	return &Trace{tracer: t, seq: seq, root: &Span{name: name, start: time.Now()}}
}

func (t *Tracer) record(tr *Trace) {
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
}

// Recent returns the retained traces, newest first, as JSON documents.
func (t *Tracer) Recent() []TraceDoc {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := make([]*Trace, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		if tr := t.ring[(t.next-1-i+2*len(t.ring))%len(t.ring)]; tr != nil {
			traces = append(traces, tr)
		}
	}
	t.mu.Unlock()
	docs := make([]TraceDoc, len(traces))
	for i, tr := range traces {
		docs[i] = tr.Doc()
	}
	return docs
}

// Handler serves the ring buffer as JSON — the GET /debug/traces
// endpoint.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"traces": t.Recent()})
	})
}

// SpanDoc is the JSON form of one span: offsets are microseconds from
// the trace's start, so a client can reconstruct the waterfall.
type SpanDoc struct {
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"`
	DurationUS int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanDoc      `json:"children,omitempty"`
}

// TraceDoc is the JSON form of one finished trace.
type TraceDoc struct {
	ID         uint64    `json:"id"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Root       SpanDoc   `json:"root"`
}

// Doc renders the trace as its JSON document. Call after Finish (an
// unfinished span reports the duration accumulated so far).
func (tr *Trace) Doc() TraceDoc {
	if tr == nil {
		return TraceDoc{}
	}
	return TraceDoc{
		ID:         tr.seq,
		Start:      tr.root.start,
		DurationUS: tr.root.duration().Microseconds(),
		Root:       tr.root.doc(tr.root.start),
	}
}

func (sp *Span) duration() time.Duration {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.ended {
		return sp.d
	}
	return time.Since(sp.start)
}

func (sp *Span) doc(origin time.Time) SpanDoc {
	sp.mu.Lock()
	d := sp.d
	if !sp.ended {
		d = time.Since(sp.start)
	}
	doc := SpanDoc{
		Name:       sp.name,
		StartUS:    sp.start.Sub(origin).Microseconds(),
		DurationUS: d.Microseconds(),
	}
	if len(sp.attrs) > 0 {
		doc.Attrs = make(map[string]any, len(sp.attrs))
		for _, a := range sp.attrs {
			doc.Attrs[a.key] = a.val
		}
	}
	children := append([]*Span(nil), sp.children...)
	sp.mu.Unlock()
	for _, c := range children {
		doc.Children = append(doc.Children, c.doc(origin))
	}
	return doc
}

// FindSpan depth-first-searches the document tree for the first span
// whose name matches exactly. Tests and clients use it to assert a
// stage ran.
func (d SpanDoc) FindSpan(name string) (SpanDoc, bool) {
	if d.Name == name {
		return d, true
	}
	for _, c := range d.Children {
		if hit, ok := c.FindSpan(name); ok {
			return hit, true
		}
	}
	return SpanDoc{}, false
}
