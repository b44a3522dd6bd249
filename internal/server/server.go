// Package server exposes a DD-DGMS platform over HTTP/JSON — the
// "service model" phase of clinical decision support the paper's
// introduction describes (Wright & Sittig's fourth architecture phase):
// the clinical information system and the decision-support system are
// separated, communicating through service interfaces, so departments,
// hospitals and research groups can share one warehouse.
//
// Endpoints:
//
//	GET  /healthz            liveness; ?deep=1 adds readiness (warehouse built, OLTP store open)
//	GET  /schema             the star schema: dimensions, attributes, hierarchies, measures
//	POST /query              {"mdx": "SELECT ..."} -> cell set as JSON; ?trace=1 attaches a span tree
//	POST /sql                {"sql": "SELECT ..."} -> DG-SQL over the flat table as JSON; ?trace=1 likewise
//	POST /flatquery          {"rows","cols","filters","agg","measure"} -> flat-scan baseline; ?trace=1 likewise
//	GET  /freshness          follow-mode lag: transactions and wall-clock behind the OLTP store
//	GET  /replication        WAL-shipping health: per-follower lag on a primary, cursor/connection on a replica
//	POST /replication/vote   {"epoch","id","follows","cursor"} -> {"granted"}: a peer's election vote request
//	POST /promote            {"listen"} -> cut this replica over to primary at the next epoch
//	GET  /findings?q=term    knowledge-base search
//	POST /findings           {"topic","statement","source"} -> recorded finding id
//	POST /findings/reinforce {"id"} -> evidence added (promotes at threshold)
//	GET  /metrics            Prometheus text exposition of every subsystem's counters
//	GET  /debug/traces       ring buffer of recent query traces as JSON
//
// The handler degrades gracefully rather than falling over: every request
// runs under panic recovery (a handler bug answers 500 JSON, not a dropped
// connection), POST bodies are size-capped (413 when exceeded), /query is
// cancelled — not merely abandoned — on timeout, client disconnect or
// shutdown (the context reaches the execution kernel, which stops
// scanning), and Shutdown drains in-flight queries before the process
// exits, cancelling them if the drain deadline expires. An optional
// admission controller sheds excess load with 429/503 + Retry-After, an
// optional per-query budget stops runaway scans with 422, and an optional
// circuit breaker fast-fails queries while the OLTP store is unhealthy.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/cube"
	"github.com/ddgms/ddgms/internal/flatquery"
	"github.com/ddgms/ddgms/internal/govern"
	"github.com/ddgms/ddgms/internal/kb"
	"github.com/ddgms/ddgms/internal/obs"
	"github.com/ddgms/ddgms/internal/oltp"
	"github.com/ddgms/ddgms/internal/refresh"
	"github.com/ddgms/ddgms/internal/repl"
	"github.com/ddgms/ddgms/internal/star"
	"github.com/ddgms/ddgms/internal/storage"
)

// Platform is the surface the server needs from a DD-DGMS instance.
// *core.Platform satisfies it; tests substitute wrappers that embed one
// (e.g. a deliberately slow cube) to exercise degradation paths.
type Platform interface {
	Warehouse() *star.Schema
	// QueryMDXCtx evaluates inline under the request context: a timeout,
	// client disconnect or server shutdown cancels the scan inside the
	// execution kernel, and a span the context carries (?trace=1)
	// collects the stage spans. QuerySQLCtx (DG-SQL over the flat table,
	// POST /sql) and QueryFlatCtx (the paper's no-warehouse comparator,
	// POST /flatquery) run the same way.
	QueryMDXCtx(ctx context.Context, src string) (*cube.CellSet, error)
	QuerySQLCtx(ctx context.Context, src string) (*storage.Table, error)
	QueryFlatCtx(ctx context.Context, q flatquery.Query) (*flatquery.Result, error)
	KB() *kb.Base
	// RecordFinding and ReinforceFinding change the knowledge base
	// through the replicated KB-event path (the OLTP WAL).
	RecordFinding(topic, statement, source string) (string, error)
	ReinforceFinding(id string) error
	Store() *oltp.Store
	// Freshness backs GET /freshness; ok=false means the platform is
	// not in follow mode (404).
	Freshness() (refresh.Freshness, bool)
	// Replication backs GET /replication; ok=false means no replication
	// role is attached (404).
	Replication() (repl.Status, bool)
	// PromoteToPrimary backs POST /promote: a platform that is not
	// currently a replica answers an error (409). PromoteListenAddr is
	// the listen address for bodies that omit one (serve
	// -promote-listen).
	PromoteToPrimary(listenAddr string) (repl.Status, error)
	PromoteListenAddr() string
	// Vote backs POST /replication/vote, the node-side election's
	// ballot; an error means the node takes no part in elections (409).
	Vote(req repl.VoteRequest) (repl.VoteReply, error)
}

// Option customises a Server.
type Option func(*Server)

// WithQueryTimeout bounds how long one /query may run; 0 disables the
// bound. Default 30s.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithLogger routes server diagnostics (panics, failed response writes)
// somewhere other than the process default logger.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithAdmission bounds /query concurrency with an admission controller:
// excess queries wait in its FIFO queue and are shed with 429 (queue
// full) or 503 (wait timed out), both carrying Retry-After. nil (the
// default) admits everything.
func WithAdmission(a *govern.Admission) Option {
	return func(s *Server) { s.admission = a }
}

// WithBreaker fast-fails /query with 503 while the breaker is open or
// its health probe (typically the OLTP store) reports unhealthy. nil
// (the default) never fast-fails.
func WithBreaker(b *govern.Breaker) Option {
	return func(s *Server) { s.breaker = b }
}

// WithQueryBudget attaches a fresh resource budget to every /query; the
// kernel charges rows, group cells and wide-path bytes against it and a
// crossed ceiling answers 422. nil budgets from the factory are
// unlimited.
func WithQueryBudget(newBudget func() *govern.Budget) Option {
	return func(s *Server) { s.newBudget = newBudget }
}

const (
	// maxBodyBytes caps POST request bodies; larger ones answer 413.
	maxBodyBytes = 1 << 20
	// healthTimeout bounds a deep health probe (/healthz?deep=1): a probe
	// that cannot finish in time answers 503 "probe timed out" rather
	// than hanging the health endpoint on a wedged store.
	healthTimeout = time.Second
	// traceRing is how many recent query traces /debug/traces keeps.
	traceRing = 128
)

// Server wraps a platform with an http.Handler. The platform must have
// its warehouse built before any /query arrives.
type Server struct {
	platform     Platform
	mux          *http.ServeMux
	queryTimeout time.Duration
	log          *log.Logger
	tracer       *obs.Tracer
	admission    *govern.Admission
	breaker      *govern.Breaker
	newBudget    func() *govern.Budget

	// routes records every registered mux pattern so tests (and the
	// router's classification table) can be checked for drift against
	// the real endpoint set.
	routes []string

	inflight sync.WaitGroup
	drainMu  sync.Mutex
	draining bool

	// shutdownCtx is cancelled when a drain deadline expires, reaching
	// every in-flight query context so cooperative kernels unwind.
	shutdownCtx    context.Context
	shutdownCancel context.CancelFunc
}

// New creates a server over a platform.
func New(p Platform, opts ...Option) *Server {
	s := &Server{
		platform:     p,
		mux:          http.NewServeMux(),
		queryTimeout: 30 * time.Second,
		log:          log.Default(),
		tracer:       obs.NewTracer(traceRing),
	}
	s.shutdownCtx, s.shutdownCancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(s)
	}
	s.handle("GET /healthz", http.HandlerFunc(s.handleHealth))
	s.handle("GET /schema", http.HandlerFunc(s.handleSchema))
	s.handle("POST /query", http.HandlerFunc(s.handleQuery))
	s.handle("POST /sql", http.HandlerFunc(s.handleSQL))
	s.handle("POST /flatquery", http.HandlerFunc(s.handleFlatQuery))
	s.handle("GET /freshness", http.HandlerFunc(s.handleFreshness))
	s.handle("GET /replication", http.HandlerFunc(s.handleReplication))
	s.handle("POST /replication/vote", http.HandlerFunc(s.handleVote))
	s.handle("POST /promote", http.HandlerFunc(s.handlePromote))
	s.handle("GET /findings", http.HandlerFunc(s.handleFindingsSearch))
	s.handle("POST /findings", http.HandlerFunc(s.handleFindingsAdd))
	s.handle("POST /findings/reinforce", http.HandlerFunc(s.handleFindingsReinforce))
	s.handle("GET /metrics", obs.Default().Handler())
	s.handle("GET /debug/traces", s.tracer.Handler())
	return s
}

// handle registers a route and records its pattern; every mux
// registration must go through here so Routes stays the single source
// of truth for the endpoint set.
func (s *Server) handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.routes = append(s.routes, pattern)
}

// Routes lists the registered mux patterns ("METHOD /path"). The
// route-label drift test and the routing front's classification checks
// are built on it.
func (s *Server) Routes() []string {
	out := make([]string, len(s.routes))
	copy(out, s.routes)
	return out
}

// ServeHTTP implements http.Handler: admission control (draining answers
// 503), in-flight accounting for Shutdown, request metrics, body caps
// and panic recovery around the routed handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r.URL.Path)
	sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK, route: route}
	start := time.Now()
	defer func() {
		metricRequests.WithLabelValues(route, strconv.Itoa(sr.status)).Inc()
		metricRequestSeconds.WithLabelValues(route).ObserveSince(start)
	}()

	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		s.writeShed(sr, http.StatusServiceUnavailable, retryAfterDrain, "server shutting down")
		return
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	defer s.inflight.Done()
	metricInflight.Add(1)
	defer metricInflight.Add(-1)

	defer func() {
		if rec := recover(); rec != nil {
			metricPanics.Inc()
			s.log.Printf("server: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			// Best effort: if the handler already wrote a status this is a
			// no-op on the status line, but the client still gets closed.
			s.writeError(sr, http.StatusInternalServerError, "internal error")
		}
	}()
	if r.Body != nil && r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(sr, r.Body, maxBodyBytes)
	}
	s.mux.ServeHTTP(sr, r)
}

// errShuttingDown is the cancellation cause stamped on in-flight query
// contexts when a drain deadline expires.
var errShuttingDown = errors.New("server shutting down")

// Shutdown stops admitting requests and waits for in-flight ones to
// drain, or for ctx to expire. An expired drain is not a hang: every
// in-flight query's context is cancelled (the cancellation reaches the
// execution kernel, which stops scanning within one check interval) and
// the context's error is returned so callers know the drain was cut
// short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.shutdownCancel()
		return nil
	case <-ctx.Done():
		// The polite drain expired: cut in-flight queries loose. They
		// answer 503 and release their admission slots; the caller's
		// <-done (or process exit) follows within a cancellation check
		// interval, not a full query duration.
		s.shutdownCancel()
		return fmt.Errorf("server: shutdown drain interrupted: %w", ctx.Err())
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v as the response. Encoding can fail midway (a broken
// client connection, an unencodable value); by then the status line is
// gone, so the failure is logged rather than silently dropped. Server
// errors are counted here so 5xx rates show up in /metrics no matter
// which handler produced them.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 500 {
		route := "other"
		if sr, ok := w.(*statusRecorder); ok {
			route = sr.route
		}
		metricErrors.WithLabelValues(route, strconv.Itoa(status)).Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Printf("server: writing %d response: %v", status, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// Retry-After values (seconds) for the shed paths. The exact numbers
// matter less than the contract: every capacity refusal (429/503)
// carries the header, so a well-behaved client herd converges instead
// of hammering.
const (
	// retryAfterBurst: the refusal was instantaneous (full queue, open
	// breaker); a slot may free up almost immediately.
	retryAfterBurst = 1
	// retryAfterQueueWait: the request already waited a full queue
	// patience; retrying sooner than that would just queue again.
	retryAfterQueueWait = 2
	// retryAfterDrain: the process is shutting down; give a replacement
	// time to come up before retrying here.
	retryAfterDrain = 5
)

// writeShed answers a load-shedding refusal. Every 429/503 shed
// response goes through here so Retry-After is set on all of them —
// including the drain and shutdown paths — never just the admission
// ones.
func (s *Server) writeShed(w http.ResponseWriter, status, retryAfterSeconds int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON POST body into v, answering 413 (body over
// the configured cap) or 400 (malformed JSON) itself. It reports
// whether the handler may proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// handleHealth is liveness; with ?deep=1 it also reports readiness: the
// warehouse must be built and the OLTP store open and un-poisoned, so ops
// can tell "process up" from "able to serve". The deep probe honours the
// request context and its own short bound (healthTimeout): a store
// wedged mid-commit answers 503 "probe timed out" within the bound
// instead of holding the health endpoint — and the ops dashboards
// polling it — hostage.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("deep") == "" {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), healthTimeout)
	defer cancel()
	type probe struct {
		doc    map[string]string
		status int
	}
	ch := make(chan probe, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- probe{map[string]string{"status": "degraded", "probe": fmt.Sprint(rec)}, http.StatusServiceUnavailable}
			}
		}()
		doc := map[string]string{"status": "ok", "warehouse": "ready", "store": "open"}
		status := http.StatusOK
		if s.platform.Warehouse() == nil {
			doc["status"], doc["warehouse"] = "degraded", "not built"
			status = http.StatusServiceUnavailable
		}
		var err error
		// The bounded check means a wedged WAL mutex cannot pin this
		// goroutine past the probe deadline.
		if st := s.platform.Store(); st == nil {
			err = errors.New("not opened")
		} else {
			err = st.HealthyBounded(ctx)
		}
		if err != nil {
			doc["status"], doc["store"] = "degraded", err.Error()
			status = http.StatusServiceUnavailable
		}
		ch <- probe{doc, status}
	}()
	select {
	case p := <-ch:
		s.writeJSON(w, p.status, p.doc)
	case <-ctx.Done():
		s.writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "degraded", "probe": "timed out"})
	}
}

// schemaDoc is the JSON form of the star schema.
type schemaDoc struct {
	Fact       string         `json:"fact"`
	Facts      int            `json:"fact_rows"` // live facts: retired ones are not counted
	Measures   []string       `json:"measures"`
	Dimensions []dimensionDoc `json:"dimensions"`
}

type dimensionDoc struct {
	Name        string         `json:"name"`
	Members     int            `json:"members"`
	Attributes  []string       `json:"attributes"`
	Hierarchies []hierarchyDoc `json:"hierarchies,omitempty"`
}

type hierarchyDoc struct {
	Name   string   `json:"name"`
	Levels []string `json:"levels"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	ws := s.platform.Warehouse()
	if ws == nil {
		s.writeError(w, http.StatusServiceUnavailable, "warehouse not built")
		return
	}
	doc := schemaDoc{Fact: ws.Name, Facts: ws.Fact().LiveLen()}
	for _, f := range ws.Fact().Measures().Fields() {
		doc.Measures = append(doc.Measures, f.Name)
	}
	for _, d := range ws.Dimensions() {
		dd := dimensionDoc{Name: d.Name(), Members: d.Len(), Attributes: d.Schema().Names()}
		for _, h := range d.Hierarchies() {
			dd.Hierarchies = append(dd.Hierarchies, hierarchyDoc{Name: h.Name, Levels: h.Levels})
		}
		doc.Dimensions = append(doc.Dimensions, dd)
	}
	s.writeJSON(w, http.StatusOK, doc)
}

// queryRequest is the /query body.
type queryRequest struct {
	MDX string `json:"mdx"`
}

// traceCarrier is a 200 document of a governed route: runGoverned
// attaches the request's span tree to it when the client asked for
// ?trace=1.
type traceCarrier interface {
	setTrace(td *obs.TraceDoc)
}

// cellSetDoc is the JSON form of a query result. Trace is attached only
// when the request asked for ?trace=1.
type cellSetDoc struct {
	RowHeaders []string      `json:"row_headers"`
	ColHeaders []string      `json:"col_headers"`
	Cells      [][]any       `json:"cells"` // numbers, or null for NA
	Measure    string        `json:"measure"`
	Trace      *obs.TraceDoc `json:"trace,omitempty"`
}

func (d *cellSetDoc) setTrace(td *obs.TraceDoc) { d.Trace = td }

func cellSetToDoc(cs *cube.CellSet) *cellSetDoc {
	doc := &cellSetDoc{Measure: cs.Measure.String()}
	for i := 0; i < cs.Rows(); i++ {
		doc.RowHeaders = append(doc.RowHeaders, cs.RowLabel(i))
	}
	for j := 0; j < cs.Columns(); j++ {
		doc.ColHeaders = append(doc.ColHeaders, cs.ColLabel(j))
	}
	doc.Cells = make([][]any, cs.Rows())
	for i := 0; i < cs.Rows(); i++ {
		doc.Cells[i] = make([]any, cs.Columns())
		for j := 0; j < cs.Columns(); j++ {
			cell := cs.Cell(i, j)
			if cell.IsNA() {
				doc.Cells[i][j] = nil
				continue
			}
			if f, ok := cell.AsFloat(); ok {
				doc.Cells[i][j] = f
			} else {
				doc.Cells[i][j] = cell.String()
			}
		}
	}
	return doc
}

// errQueryPanic marks evaluator panics so they answer 500, not 400.
var errQueryPanic = fmt.Errorf("query panicked")

// statusClientClosedRequest is nginx's conventional code for "the client
// went away before the response": the cancelled evaluation is accounted
// distinctly from timeouts in request metrics, even though nobody reads
// the body.
const statusClientClosedRequest = 499

// governedEval is one query-shaped evaluation running under the
// governance pipeline: it returns the 200 response document, or an
// error the shared status mapping in runGoverned translates.
type governedEval func(ctx context.Context) (traceCarrier, error)

// safeEval runs eval with panic containment: an evaluator bug answers
// 500 (and counts as a breaker failure) without unwinding the whole
// request path.
func safeEval(ctx context.Context, eval governedEval) (doc traceCarrier, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			doc, err = nil, fmt.Errorf("%w: %v", errQueryPanic, rec)
		}
	}()
	return eval(ctx)
}

// runGoverned runs one evaluation under the full governance pipeline:
// admission (concurrency gate + bounded FIFO queue), circuit breaker,
// per-query budget, then a cancellable inline evaluation. Every
// query-shaped endpoint (/query, /sql, /flatquery) shares this path,
// so the governance contract — 429/503 shed with Retry-After, 422
// budget trips, 504 cancelled timeouts, 499 vanished clients — holds
// uniformly across query languages. There is no side goroutine: when
// the deadline, the client or a shutdown cancels the context, the
// execution kernel itself stops scanning within one check interval and
// the admission slot is released immediately — under overload the
// server sheds (429/503) instead of stacking up zombie evaluations
// behind 504s.
//
// Every evaluation is one trace in the /debug/traces ring, its root
// annotated with the query as the client sent it under lang ("mdx",
// "sql", "flatquery"). The root span rides the context — where every
// layer below looks for its parent — only under ?trace=1, so an
// untraced request records no stage spans and pays only nil checks;
// a traced one gets the finished tree attached to its response.
func (s *Server) runGoverned(w http.ResponseWriter, r *http.Request, lang string, query any, eval governedEval) {
	// Admission first: a shed request must cost nothing downstream, and
	// the breaker's half-open probe accounting requires that every
	// successful Allow is matched by a recorded outcome.
	if s.admission != nil {
		release, err := s.admission.Acquire(r.Context())
		if err != nil {
			switch {
			case errors.Is(err, govern.ErrQueueFull):
				s.writeShed(w, http.StatusTooManyRequests, retryAfterBurst, "%v", err)
			case errors.Is(err, govern.ErrWaitTimeout):
				s.writeShed(w, http.StatusServiceUnavailable, retryAfterQueueWait, "%v", err)
			default: // the client gave up while queued
				s.writeError(w, statusClientClosedRequest, "client closed request while queued")
			}
			return
		}
		defer release()
	}

	if s.breaker != nil {
		if err := s.breaker.Allow(); err != nil {
			s.writeShed(w, http.StatusServiceUnavailable, retryAfterBurst, "%v", err)
			return
		}
	}
	// The breaker saw this query: exactly one outcome must be recorded,
	// even if the evaluation below panics. failed stays true only for
	// server-side faults (panic, timeout); client errors, cancellations
	// and budget trips do not indict the backend.
	failed := true
	defer func() {
		if s.breaker == nil {
			return
		}
		if failed {
			s.breaker.RecordFailure()
		} else {
			s.breaker.RecordSuccess()
		}
	}()

	// The query context: the request context (client disconnect), a
	// shutdown hook (expired drains cancel in-flight work), the query
	// timeout, and the per-query budget, layered in that order.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stopShutdownHook := context.AfterFunc(s.shutdownCtx, func() { cancel(errShuttingDown) })
	defer stopShutdownHook()
	if s.queryTimeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, s.queryTimeout)
		defer cancelTimeout()
	}
	if s.newBudget != nil {
		ctx = govern.WithBudget(ctx, s.newBudget())
	}

	tr := s.tracer.StartTrace("query")
	tr.Root().Annotate(lang, query)
	wantTrace := tr != nil && r.URL.Query().Get("trace") == "1"
	if wantTrace {
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}

	doc, err := safeEval(ctx, eval)
	tr.Finish() // safeEval contains panics, so the ring keeps their partial traces too
	switch {
	case err == nil:
		failed = false
		if wantTrace {
			td := tr.Doc()
			doc.setTrace(&td)
		}
		s.writeJSON(w, http.StatusOK, doc)
	case errors.Is(err, errQueryPanic):
		s.log.Printf("server: %s: %v", r.URL.Path, err)
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, govern.ErrBudgetExceeded):
		failed = false
		s.writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		govern.CountCancelled("deadline")
		s.log.Printf("server: %s cancelled: %v", r.URL.Path, err)
		s.writeError(w, http.StatusGatewayTimeout, "query timed out after %s", s.queryTimeout)
	case errors.Is(err, context.Canceled):
		failed = false
		if errors.Is(context.Cause(ctx), errShuttingDown) {
			govern.CountCancelled("shutdown")
			s.writeShed(w, http.StatusServiceUnavailable, retryAfterDrain, "server shutting down")
			return
		}
		govern.CountCancelled("client_gone")
		s.writeError(w, statusClientClosedRequest, "client closed request")
	default:
		failed = false
		s.writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleQuery runs one MDX query under the governance pipeline (see
// runGoverned).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.MDX == "" {
		s.writeError(w, http.StatusBadRequest, "missing mdx field")
		return
	}
	s.runGoverned(w, r, "mdx", req.MDX, func(ctx context.Context) (traceCarrier, error) {
		cs, err := s.platform.QueryMDXCtx(ctx, req.MDX)
		if err != nil {
			return nil, err
		}
		return cellSetToDoc(cs), nil
	})
}

// handleFreshness reports how far the warehouse trails the OLTP store.
// 404 (not 5xx) when the platform is not following: a batch-mode server
// is healthy, it just has no lag to report.
func (s *Server) handleFreshness(w http.ResponseWriter, r *http.Request) {
	f, following := s.platform.Freshness()
	if !following {
		s.writeError(w, http.StatusNotFound, "not in follow mode")
		return
	}
	s.writeJSON(w, http.StatusOK, f)
}

// handleReplication reports WAL-shipping health: the primary's
// per-follower lag, or a replica's connection state and cursor. 404
// (not 5xx) when no replication role is attached — a standalone server
// is healthy, it just has nothing to report.
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	st, attached := s.platform.Replication()
	if !attached {
		s.writeError(w, http.StatusNotFound, "replication not attached")
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleVote answers a peer's election vote request. Granted or not is
// a 200 answer; 409 when the node does not take part in elections. Not
// proxied by the routing front: a vote is asked of one specific node.
func (s *Server) handleVote(w http.ResponseWriter, r *http.Request) {
	var req repl.VoteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	reply, err := s.platform.Vote(req)
	if err != nil {
		s.writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, reply)
}

// promoteRequest is the POST /promote body: the address the new
// primary's replication listener binds for re-homing followers.
type promoteRequest struct {
	Listen string `json:"listen"`
}

// handlePromote cuts a replica over to primary (see core.Promote): stop
// following, verify the local WAL tail, leave replica mode and start a
// replication listener at the next epoch. 409 (not 5xx) when the node
// is not a promotable replica — asking the wrong node is an operator
// error, not a server fault. Deliberately not proxied by the routing
// front: promotion targets one specific node.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req promoteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Listen == "" {
		req.Listen = s.platform.PromoteListenAddr()
	}
	if req.Listen == "" {
		s.writeError(w, http.StatusBadRequest, "listen address required (where the new primary ships its WAL from)")
		return
	}
	st, err := s.platform.PromoteToPrimary(req.Listen)
	if err != nil {
		s.writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFindingsSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	s.writeJSON(w, http.StatusOK, s.platform.KB().Search(q))
}

// findingRequest is the POST /findings body.
type findingRequest struct {
	Topic     string `json:"topic"`
	Statement string `json:"statement"`
	Source    string `json:"source"`
}

func (s *Server) handleFindingsAdd(w http.ResponseWriter, r *http.Request) {
	var req findingRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	id, err := s.platform.RecordFinding(req.Topic, req.Statement, req.Source)
	if err != nil {
		if errors.Is(err, oltp.ErrReplica) {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// reinforceRequest is the POST /findings/reinforce body.
type reinforceRequest struct {
	ID string `json:"id"`
}

func (s *Server) handleFindingsReinforce(w http.ResponseWriter, r *http.Request) {
	var req reinforceRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := s.platform.ReinforceFinding(req.ID); err != nil {
		if errors.Is(err, oltp.ErrReplica) {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	f, err := s.platform.KB().Get(req.ID)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, f)
}
