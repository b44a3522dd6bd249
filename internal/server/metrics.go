package server

import (
	"net/http"
	"strings"

	"github.com/ddgms/ddgms/internal/obs"
)

// HTTP metric families. The route label is drawn from the fixed
// endpoint set (unknown paths collapse to "other"), so cardinality is
// bounded no matter what clients request.
var (
	metricRequests = obs.Default().CounterVec(
		"ddgms_http_requests_total",
		"HTTP requests served, by route and status code.",
		"route", "code")
	metricRequestSeconds = obs.Default().HistogramVec(
		"ddgms_http_request_seconds",
		"HTTP request latency by route.",
		nil,
		"route")
	metricErrors = obs.Default().CounterVec(
		"ddgms_http_errors_total",
		"HTTP 5xx responses, by route and status code.",
		"route", "code")
	metricPanics = obs.Default().Counter(
		"ddgms_http_panics_total",
		"Handler panics caught by the recovery middleware.")
	metricInflight = obs.Default().Gauge(
		"ddgms_http_inflight_requests",
		"Requests currently being served.")
)

// routeLabel collapses a request path onto the served endpoint set.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/schema", "/query", "/sql", "/flatquery",
		"/freshness", "/replication", "/replication/vote", "/promote", "/findings",
		"/findings/reinforce", "/metrics", "/debug/traces":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

// statusRecorder captures the response status (default 200 when a
// handler writes the body directly) and carries the route label down to
// writeJSON so 5xx responses are attributed to their endpoint.
type statusRecorder struct {
	http.ResponseWriter
	status int
	route  string
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}
