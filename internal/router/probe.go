package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/ddgms/ddgms/internal/repl"
)

// backend is one node behind the routing front, with the state the
// prober last observed for it. The configured set is fixed for the
// router's lifetime; only the observed state changes.
type backend struct {
	base *url.URL

	mu       sync.Mutex
	healthy  bool
	role     string // "primary", "follower", "standalone" (no /replication), "" before first probe
	epoch    uint64
	fenced   bool
	seconds  float64 // follower SecondsSinceFrame at probe time
	probedAt time.Time
	lastErr  string

	// Probe backoff for persistently failing backends: the current
	// delay (0 = probe every tick) and the earliest next probe instant.
	backoff   time.Duration
	nextProbe time.Time
}

// snapshot is a consistent copy of one backend's probed state.
type snapshot struct {
	b        *backend
	healthy  bool
	role     string
	epoch    uint64
	fenced   bool
	seconds  float64
	probedAt time.Time
	lastErr  string
}

func (b *backend) snapshot() snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return snapshot{
		b: b, healthy: b.healthy, role: b.role, epoch: b.epoch,
		fenced: b.fenced, seconds: b.seconds, probedAt: b.probedAt,
		lastErr: b.lastErr,
	}
}

// markUnhealthy records a transport failure observed on the live proxy
// path — faster than waiting for the next poll tick, so one dead
// backend costs one request, not PollEvery's worth of them.
func (b *backend) markUnhealthy(err error) {
	b.mu.Lock()
	b.healthy = false
	b.lastErr = err.Error()
	b.mu.Unlock()
	metricBackendHealthy.WithLabelValues(b.base.Host).Set(0)
}

// staleness is the follower's effective read staleness bound at time
// now: what the node itself reported, plus however long ago we probed
// it (the primary may have committed the whole time since).
func (s snapshot) staleness(now time.Time) float64 {
	age := now.Sub(s.probedAt).Seconds()
	if age < 0 {
		age = 0
	}
	return s.seconds + age
}

// probe refreshes one backend's state: /healthz?deep=1 for liveness and
// readiness, /replication for role, epoch and lag. A node without
// replication attached (404) is "standalone" — a single-node deployment
// fronted by the router is still routable.
func (rt *Router) probe(b *backend) {
	healthy := false
	role := "standalone"
	var epoch uint64
	var fenced bool
	var seconds float64
	var lastErr string

	if err := rt.probeGet(b, "/healthz?deep=1", nil); err != nil {
		lastErr = err.Error()
	} else {
		healthy = true
		var st repl.Status
		err := rt.probeGet(b, "/replication", &st)
		switch {
		case err == nil:
			role = st.Role
			epoch = st.Epoch
			fenced = st.Fenced
			seconds = st.SecondsSinceFrame
		case err == errNoReplication:
			// standalone stays
		default:
			healthy = false
			lastErr = err.Error()
		}
	}

	now := time.Now()
	b.mu.Lock()
	b.healthy = healthy
	b.role = role
	b.epoch = epoch
	b.fenced = fenced
	b.seconds = seconds
	b.probedAt = now
	b.lastErr = lastErr
	if healthy {
		// First success resets the probe backoff: a recovered backend is
		// re-probed at full cadence.
		b.backoff = 0
		b.nextProbe = time.Time{}
	} else {
		b.bumpBackoffLocked(now, rt.cfg.PollEvery, rt.cfg.ProbeBackoffMax)
	}
	b.mu.Unlock()
	if healthy {
		metricBackendHealthy.WithLabelValues(b.base.Host).Set(1)
	} else {
		metricBackendHealthy.WithLabelValues(b.base.Host).Set(0)
	}
}

// bumpBackoffLocked doubles the probe backoff (starting from the poll
// interval) up to cap, then schedules the next probe with up to 25%
// added jitter so a fleet of routers does not hammer a dead backend in
// lockstep.
func (b *backend) bumpBackoffLocked(now time.Time, base, limit time.Duration) {
	if b.backoff == 0 {
		b.backoff = base
	} else {
		b.backoff *= 2
	}
	if b.backoff > limit {
		b.backoff = limit
	}
	jitter := time.Duration(rand.Int63n(int64(b.backoff)/4 + 1))
	b.nextProbe = now.Add(b.backoff + jitter)
}

// probeDue reports whether the backend's backoff allows a probe now.
func (b *backend) probeDue(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextProbe.IsZero() || !now.Before(b.nextProbe)
}

var errNoReplication = fmt.Errorf("router: backend has no /replication")

// probeGet fetches base+path, optionally decoding a JSON body into out.
func (rt *Router) probeGet(b *backend, path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.String()+path, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return errNoReplication
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: %s%s answered %d", b.base.Host, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("router: decoding %s%s: %w", b.base.Host, path, err)
		}
	}
	return nil
}

// ProbeOnce synchronously probes every backend (ignoring per-backend
// backoff) and re-resolves the primary. New runs it before returning so
// the router is immediately routable; tests use it to make convergence
// deterministic.
func (rt *Router) ProbeOnce() {
	rt.probeRound(true)
}

// probeRound probes the due backends (all of them when forced) and
// re-resolves.
func (rt *Router) probeRound(force bool) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		if !force && !b.probeDue(now) {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probe(b)
		}(b)
	}
	wg.Wait()
	rt.resolve()
}

// probeLoop drives probe rounds at PollEvery until Close. Individual
// backends in failure backoff are skipped until their next-probe
// instant, so a persistently dead node is not hammered every tick.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.PollEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-tick.C:
			rt.probeRound(false)
		}
	}
}

// view is the routing decision input: the resolved primary (nil when
// none), the cluster epoch, and the read-eligible followers.
type view struct {
	primary *snapshot
	epoch   uint64
	readers []snapshot
}

// currentView computes the cluster view from the latest probed state.
//
// Primary resolution is epoch-driven: among healthy, non-fenced
// backends claiming the primary role, the highest epoch wins — after a
// promotion the new leader's epoch is strictly above the old one's, so
// the router re-resolves without any coordination. A returned stale
// primary still claiming its old epoch loses the comparison and gets no
// traffic, even before it learns it was fenced. A single healthy
// standalone node (no replication attached) acts as its own primary so
// the router can front a one-node deployment.
//
// Read eligibility: healthy followers at the cluster epoch whose
// effective staleness (their own SecondsSinceFrame plus our probe age)
// is within MaxStaleness.
func (rt *Router) currentView() view {
	now := time.Now()
	snaps := make([]snapshot, 0, len(rt.backends))
	for _, b := range rt.backends {
		snaps = append(snaps, b.snapshot())
	}

	var v view
	var standalone *snapshot
	standaloneCount := 0
	for i := range snaps {
		s := &snaps[i]
		if !s.healthy {
			continue
		}
		switch s.role {
		case "primary":
			if s.fenced {
				continue
			}
			if v.primary == nil || s.epoch > v.primary.epoch ||
				(s.epoch == v.primary.epoch && s.b.base.Host < v.primary.b.base.Host) {
				v.primary = s
			}
		case "standalone":
			standalone = s
			standaloneCount++
		}
	}
	if v.primary == nil && standaloneCount == 1 {
		v.primary = standalone
	}
	if v.primary != nil {
		v.epoch = v.primary.epoch
	}

	maxStale := rt.cfg.MaxStaleness.Seconds()
	for i := range snaps {
		s := &snaps[i]
		eligible := s.healthy && s.role == "follower" && s.epoch == v.epoch &&
			v.primary != nil && s.staleness(now) <= maxStale
		if eligible {
			v.readers = append(v.readers, *s)
		}
		val := 0.0
		if eligible {
			val = 1.0
		}
		metricBackendEligible.WithLabelValues(s.b.base.Host).Set(val)
	}
	return v
}

// resolve updates the failover accounting after a probe round: when the
// resolved primary's identity changes, count it and log it. A round
// with no primary at all (the mid-cutover gap) does not clear the
// remembered identity — a kill observed before the promotion must
// still count as one failover once the successor appears, not zero.
func (rt *Router) resolve() {
	v := rt.currentView()
	addr := ""
	if v.primary != nil {
		addr = v.primary.b.base.Host
	}
	rt.mu.Lock()
	prev := rt.lastPrimary
	if addr != prev && addr != "" {
		rt.lastPrimary = addr
		if prev != "" {
			rt.failovers++
			metricFailovers.Inc()
		}
	}
	logged := rt.lastResolved
	rt.lastResolved = addr
	rt.mu.Unlock()
	metricPrimaryEpoch.Set(float64(v.epoch))
	if addr != logged {
		rt.logf("router: primary resolved to %q (epoch %d, was %q)", addr, v.epoch, logged)
	}
}
