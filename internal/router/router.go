// Package router is the replica-aware routing front: one HTTP address
// that fans a cluster's traffic out by endpoint class. Writes and
// primary-local reads go to the current primary; figure/query reads are
// load-balanced round-robin over followers whose replication staleness
// is inside a configured bound, failing over to the primary when every
// follower is stale.
//
// The router polls each backend's /healthz and /replication and
// resolves the primary by epoch comparison: after a promotion the new
// leader claims a strictly higher epoch, so the router re-homes client
// traffic with no coordination protocol — and a stale ex-primary that
// comes back can never win the comparison, which is the routing half of
// the fencing story. The router is a stateless view: it keeps nothing
// on disk and decides no failover (the nodes elect among themselves),
// so any number of fronts can run side by side. /cluster exposes the
// resolved view; every refusal the router issues itself (502/503 during
// cutover) carries Retry-After, the same backpressure contract the
// backends use.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/obs"
)

// Config parameterises the routing front.
type Config struct {
	// Backends are the base URLs of the nodes to front, e.g.
	// "http://10.0.0.1:8360". Required, fixed for the router's lifetime.
	Backends []string
	// PollEvery is the health/replication probe cadence. Default 250ms.
	PollEvery time.Duration
	// MaxStaleness bounds a follower's effective replication staleness
	// (its own seconds-since-frame plus probe age) for balanced reads;
	// staler followers are skipped. Default 5s.
	MaxStaleness time.Duration
	// ProbeTimeout bounds each probe request. Default 2s.
	ProbeTimeout time.Duration
	// MaxBodyBytes caps a buffered (replayable) read body. Default 1MiB,
	// matching the backends' own body cap.
	MaxBodyBytes int64
	// ProbeBackoffMax caps the per-backend exponential probe backoff
	// applied to persistently failing backends. Default 5s.
	ProbeBackoffMax time.Duration

	// Client issues probes and proxied requests; nil builds a pooled
	// default.
	Client *http.Client
	// Log, when set, receives failover and shed lines.
	Log *log.Logger
}

// Router is the http.Handler front.
type Router struct {
	cfg      Config
	client   *http.Client
	backends []*backend

	mu sync.Mutex
	rr uint64 // round-robin cursor over eligible readers
	// lastPrimary is the identity of the last primary ever resolved (it
	// survives no-primary gaps, so a kill->promote sequence counts one
	// failover); lastResolved is the last logged resolution, which does
	// track gaps.
	lastPrimary  string
	lastResolved string
	failovers    uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// New validates the config, probes every backend once (so the router is
// immediately routable) and starts the poll loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = 5 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ProbeBackoffMax <= 0 {
		cfg.ProbeBackoffMax = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 128
		client = &http.Client{Transport: tr}
	}
	rt := &Router{cfg: cfg, client: client, done: make(chan struct{})}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: backend %q is not an absolute URL", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("router: backend %q listed twice", u.Host)
		}
		seen[u.Host] = true
		rt.backends = append(rt.backends, &backend{base: u})
	}
	rt.ProbeOnce()
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the poll loop.
func (rt *Router) Close() error {
	select {
	case <-rt.done:
		return nil
	default:
	}
	close(rt.done)
	rt.wg.Wait()
	return nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Log != nil {
		rt.cfg.Log.Printf(format, args...)
	}
}

// Request classes. Classification is by (method, path) against the
// backend endpoint set; the server package's
// TestRouterClassifiesEveryRoute keeps this table from drifting when
// the backend grows a route. Routes addressed to one specific node —
// POST /promote, POST /replication/vote, GET /debug/traces — are
// direct-only: left unclassified, so the front answers them 404 rather
// than picking a node for them.
type class int

const (
	classUnknown class = iota
	// classWrite mutates state: primary only, never retried (the
	// request may not be idempotent).
	classWrite
	// classRead is balanced over fresh followers, falls over to the
	// primary, and may be replayed once after a transport error.
	classRead
	// classPrimaryRead reads state that lives authoritatively on the
	// primary (the findings KB, the replication roster).
	classPrimaryRead
	// classSelf is answered by the router itself.
	classSelf
)

func classify(method, path string) class {
	switch path {
	case "/query", "/sql", "/flatquery":
		if method == http.MethodPost {
			return classRead
		}
	case "/freshness", "/schema", "/healthz":
		if method == http.MethodGet {
			return classRead
		}
	case "/findings":
		switch method {
		case http.MethodPost:
			return classWrite
		case http.MethodGet:
			return classPrimaryRead
		}
	case "/findings/reinforce":
		if method == http.MethodPost {
			return classWrite
		}
	case "/replication":
		if method == http.MethodGet {
			return classPrimaryRead
		}
	case "/cluster", "/metrics", "/routerz":
		if method == http.MethodGet {
			return classSelf
		}
	}
	return classUnknown
}

// Classify reports the routing class label ("write", "read",
// "primary_read", "self", "unknown") for a request. Exported so the
// server package's drift test can assert every registered backend route
// is classified; unknown requests are refused with 404.
func Classify(method, path string) string {
	return classLabel(classify(method, path))
}

func classLabel(c class) string {
	switch c {
	case classWrite:
		return "write"
	case classRead:
		return "read"
	case classPrimaryRead:
		return "primary_read"
	case classSelf:
		return "self"
	default:
		return "unknown"
	}
}

// ServeHTTP classifies and dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := classify(r.Method, r.URL.Path)
	switch c {
	case classSelf:
		switch r.URL.Path {
		case "/cluster":
			rt.handleCluster(w, r)
		case "/routerz":
			rt.handleRouterHealth(w, r)
		default:
			metricRequests.WithLabelValues("self", "router").Inc()
			obs.Default().Handler().ServeHTTP(w, r)
		}
	case classWrite, classPrimaryRead:
		rt.proxyPrimary(w, r, c)
	case classRead:
		rt.proxyRead(w, r)
	default:
		metricRequests.WithLabelValues("unknown", "none").Inc()
		rt.writeError(w, http.StatusNotFound, "router: no route for %s %s", r.Method, r.URL.Path)
	}
}

// Retry-After seconds for the router's own refusals. Cutovers resolve
// within a couple of probe intervals, so clients should come back fast.
const (
	retryAfterNoPrimary  = 1
	retryAfterProxyError = 1
	retryAfterNoBackend  = 2
)

type errorBody struct {
	Error string `json:"error"`
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	rt.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeShed answers a routing refusal (primary unresolved, every
// candidate down, proxy failure): same Retry-After contract as the
// backends' own shed paths, so a client herd sees one consistent
// backpressure story end to end.
func (rt *Router) writeShed(w http.ResponseWriter, status, retryAfterSeconds int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	rt.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// proxyPrimary routes writes and primary-local reads to the resolved
// primary. No replay: a write may not be idempotent, so a transport
// error sheds 502 (with Retry-After) and the client decides.
func (rt *Router) proxyPrimary(w http.ResponseWriter, r *http.Request, c class) {
	label := classLabel(c)
	v := rt.currentView()
	if v.primary == nil {
		metricRequests.WithLabelValues(label, "none").Inc()
		shedNoPrimary.Inc()
		rt.writeShed(w, http.StatusServiceUnavailable, retryAfterNoPrimary,
			"no primary resolved (cutover in progress?); retry shortly")
		return
	}
	metricRequests.WithLabelValues(label, v.primary.role).Inc()
	if err := rt.forward(w, r, v.primary.b, v.primary.role, nil); err != nil {
		v.primary.b.markUnhealthy(err)
		shedProxyError.Inc()
		rt.logf("router: %s to %s failed: %v", label, v.primary.b.base.Host, err)
		rt.writeShed(w, http.StatusBadGateway, retryAfterProxyError,
			"primary %s unreachable: %v", v.primary.b.base.Host, err)
	}
}

// idempotentRead reports whether a read may be replayed against another
// backend after a transport error. GETs always may; a POST is
// replayable only when it targets one of the fixed read-only query
// endpoints, which execute no writes by construction. Any other POST
// that reaches the read path — say, after a future classification
// change — gets exactly one attempt, so a replayed request can never
// double-apply a mutation whose first attempt died mid-flight with
// unknown effect.
func idempotentRead(method, path string) bool {
	if method == http.MethodGet {
		return true
	}
	if method != http.MethodPost {
		return false
	}
	switch path {
	case "/query", "/sql", "/flatquery":
		return true
	}
	return false
}

// proxyRead balances one read over the eligible followers, falling over
// to the primary when none qualifies. The body is buffered so a
// transport error can replay the request once against the next
// candidate — but only when idempotentRead vouches for it; it is what
// keeps a dying follower from surfacing as client-visible 502s.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
		r.Body.Close()
		if err != nil {
			rt.writeError(w, http.StatusBadRequest, "reading request body: %v", err)
			return
		}
		if int64(len(body)) > rt.cfg.MaxBodyBytes {
			rt.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", rt.cfg.MaxBodyBytes)
			return
		}
	}

	attempts := 1
	if idempotentRead(r.Method, r.URL.Path) {
		attempts = 2
	}
	tried := map[string]bool{}
	for attempt := 0; attempt < attempts; attempt++ {
		target, role := rt.pickRead(tried)
		if target == nil {
			break
		}
		tried[target.base.Host] = true
		metricRequests.WithLabelValues("read", role).Inc()
		if role == "primary" || role == "standalone" {
			metricReadsToPrimary.Inc()
		}
		err := rt.forward(w, r, target, role, body)
		if err == nil {
			return
		}
		target.markUnhealthy(err)
		rt.logf("router: read to %s failed: %v", target.base.Host, err)
		metricReadRetries.Inc()
	}
	shedNoBackend.Inc()
	rt.writeShed(w, http.StatusServiceUnavailable, retryAfterNoBackend,
		"no backend available for reads; retry shortly")
}

// pickRead chooses the next read target: round-robin over eligible
// followers not yet tried, then the primary as the fallback.
func (rt *Router) pickRead(tried map[string]bool) (*backend, string) {
	v := rt.currentView()
	candidates := make([]snapshot, 0, len(v.readers))
	for _, s := range v.readers {
		if !tried[s.b.base.Host] {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) > 0 {
		rt.mu.Lock()
		i := int(rt.rr % uint64(len(candidates)))
		rt.rr++
		rt.mu.Unlock()
		return candidates[i].b, candidates[i].role
	}
	if v.primary != nil && !tried[v.primary.b.base.Host] {
		return v.primary.b, v.primary.role
	}
	return nil, ""
}

// forward proxies one request to a backend, copying the response
// through verbatim plus X-Ddgms-Backend/-Role headers so clients (and
// the failover bench) can see who served them. A non-nil body replaces
// the request's (already consumed) one. Transport errors after the
// response status is written cannot be retried; they surface as a
// truncated body, exactly as if the client spoke to the backend
// directly.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, b *backend, role string, body []byte) error {
	u := *b.base
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	out := r.Clone(r.Context())
	out.URL = &u
	out.Host = ""
	out.RequestURI = ""
	if body != nil {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.ContentLength = int64(len(body))
	}
	stripHopByHop(out.Header)
	resp, err := rt.client.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	stripHopByHop(h)
	h.Set("X-Ddgms-Backend", b.base.Host)
	h.Set("X-Ddgms-Role", role)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return nil
}

// stripHopByHop removes connection-scoped headers that must not be
// forwarded across the proxy hop.
func stripHopByHop(h http.Header) {
	for _, c := range h.Values("Connection") {
		for _, f := range strings.Split(c, ",") {
			if f = strings.TrimSpace(f); f != "" {
				h.Del(f)
			}
		}
	}
	for _, k := range []string{
		"Connection", "Keep-Alive", "Proxy-Authenticate",
		"Proxy-Authorization", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade",
	} {
		h.Del(k)
	}
}

// BackendStatus is one backend's row in the /cluster view.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Role is primary, follower, standalone, or "" before the first
	// successful probe.
	Role   string `json:"role,omitempty"`
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced,omitempty"`
	// Stale marks a backend whose epoch is behind the resolved cluster
	// epoch: a not-yet-re-homed follower or a returned old primary.
	Stale bool `json:"stale,omitempty"`
	// StalenessSeconds is the follower's effective read staleness
	// (reported seconds-since-frame plus probe age).
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
	EligibleReads    bool    `json:"eligible_reads"`
	ProbeAgeSeconds  float64 `json:"probe_age_seconds"`
	Error            string  `json:"error,omitempty"`
}

// ClusterStatus is the /cluster endpoint's body.
type ClusterStatus struct {
	// Primary is the resolved primary's backend URL; empty mid-cutover.
	Primary string `json:"primary,omitempty"`
	// Epoch is the resolved cluster epoch (the primary's).
	Epoch uint64 `json:"epoch"`
	// Failovers counts primary identity changes observed by this router.
	Failovers           uint64          `json:"failovers"`
	MaxStalenessSeconds float64         `json:"max_staleness_seconds"`
	Backends            []BackendStatus `json:"backends"`
}

// Cluster reports the resolved view (also served on /cluster).
func (rt *Router) Cluster() ClusterStatus {
	now := time.Now()
	v := rt.currentView()
	rt.mu.Lock()
	failovers := rt.failovers
	rt.mu.Unlock()
	cs := ClusterStatus{
		Epoch:               v.epoch,
		Failovers:           failovers,
		MaxStalenessSeconds: rt.cfg.MaxStaleness.Seconds(),
	}
	if v.primary != nil {
		cs.Primary = v.primary.b.base.String()
	}
	eligible := map[string]bool{}
	for _, s := range v.readers {
		eligible[s.b.base.Host] = true
	}
	for _, b := range rt.backends {
		s := b.snapshot()
		bs := BackendStatus{
			URL:           b.base.String(),
			Healthy:       s.healthy,
			Role:          s.role,
			Epoch:         s.epoch,
			Fenced:        s.fenced,
			Stale:         s.healthy && s.epoch < v.epoch,
			EligibleReads: eligible[b.base.Host],
			Error:         s.lastErr,
		}
		if s.role == "follower" {
			bs.StalenessSeconds = s.staleness(now)
		}
		if !s.probedAt.IsZero() {
			bs.ProbeAgeSeconds = now.Sub(s.probedAt).Seconds()
		}
		cs.Backends = append(cs.Backends, bs)
	}
	return cs
}

func (rt *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	metricRequests.WithLabelValues("self", "router").Inc()
	rt.writeJSON(w, http.StatusOK, rt.Cluster())
}

// handleRouterHealth (/routerz) is the router's own liveness for load
// balancers: 200 while a primary is resolved, 503 (with Retry-After)
// mid-cutover. Reads may still be flowing either way; the signal is
// about full-service availability.
func (rt *Router) handleRouterHealth(w http.ResponseWriter, _ *http.Request) {
	metricRequests.WithLabelValues("self", "router").Inc()
	v := rt.currentView()
	if v.primary == nil {
		rt.writeShed(w, http.StatusServiceUnavailable, retryAfterNoPrimary, "no primary resolved")
		return
	}
	rt.writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Primary string `json:"primary"`
		Epoch   uint64 `json:"epoch"`
	}{"ok", v.primary.b.base.String(), v.epoch})
}
