package server

// Observability wiring for the serving layer: the per-server obs.Registry,
// the route-level counter caches, the /api/v1/metrics exposition handler,
// and the fold-in point for engine stage timings. The whole stack is
// nil-safe — a Server built with obs disabled (SetObsEnabled(false), used by
// the overhead benchmark) skips the instrumented dispatch path entirely.

import (
	"net/http"
	"strings"
	"time"

	"podium/internal/core"
	"podium/internal/obs"
)

// commonCodes are the statuses with precreated per-route counters; anything
// else takes the registry's locked get-or-create path (rare by design).
var commonCodes = [...]int{200, 400, 404, 405, 429, 500, 503}

func codeIdx(code int) int {
	for i, c := range commonCodes {
		if c == code {
			return i
		}
	}
	return -1
}

// methodLabel bounds the method label's cardinality: arbitrary client verbs
// collapse to "other".
func methodLabel(m string) string {
	switch m {
	case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete,
		http.MethodHead, http.MethodOptions, http.MethodPatch:
		return m
	}
	return "other"
}

// routeMetrics is one route's counter cache: the hot path does a small map
// read and an atomic add, never touching the registry's locks.
type routeMetrics struct {
	name     string
	met      *obs.ServerMetrics
	latency  *obs.Histogram
	byMethod map[string][len(commonCodes)]*obs.Counter
}

func newRouteMetrics(met *obs.ServerMetrics, name string, methods []string) *routeMetrics {
	rm := &routeMetrics{
		name:     name,
		met:      met,
		latency:  met.RouteLatency(name),
		byMethod: make(map[string][len(commonCodes)]*obs.Counter, len(methods)),
	}
	for _, m := range methods {
		var arr [len(commonCodes)]*obs.Counter
		for i, c := range commonCodes {
			arr[i] = met.RouteRequests(name, m, c)
		}
		rm.byMethod[m] = arr
	}
	return rm
}

func (rm *routeMetrics) count(method string, code int) {
	if arr, ok := rm.byMethod[method]; ok {
		if i := codeIdx(code); i >= 0 {
			arr[i].Inc()
			return
		}
	}
	rm.met.RouteRequests(rm.name, methodLabel(method), code).Inc()
}

// Metrics returns the server's registry, for embedding callers that want to
// register their own families (e.g. client metrics sharing one exposition).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// RecordRepositoryLoad publishes the startup load timing for the given
// source format ("image", "binary", "json", "log", "synth"), so operators
// can see at /api/v1/metrics whether a restart took the near-instant v2
// image path or fell back to a slower decode.
func (s *Server) RecordRepositoryLoad(format string, d time.Duration) {
	s.met.LoadDuration(format).Set(d.Nanoseconds())
}

// SetObsEnabled toggles request instrumentation (default on). Exists for the
// overhead benchmark; flip it before serving traffic, not concurrently with
// a scrape you care about.
func (s *Server) SetObsEnabled(v bool) { s.obsOff.Store(!v) }

func (s *Server) obsEnabled() bool { return !s.obsOff.Load() }

// handleMetrics serves GET /api/v1/metrics in Prometheus text exposition
// format (hand-rolled; see internal/obs).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	if err := s.reg.WriteText(&b); err != nil {
		writeError(w, r, http.StatusInternalServerError, codeInternal, "rendering metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// observeEngine folds one selection's stage timings into the core family.
// A request that ran no engine loop (tim.Runs == 0: a cache hit, or the EBS
// exact path) records nothing.
func (s *Server) observeEngine(tim *core.StageTimings) {
	if tim == nil || tim.Runs == 0 || s.coreMet == nil {
		return
	}
	s.coreMet.Selections.Add(uint64(tim.Runs))
	s.coreMet.ObserveStage("init", time.Duration(tim.InitNs))
	s.coreMet.ObserveStage("argmax", time.Duration(tim.ArgmaxNs))
	s.coreMet.ObserveStage("retract", time.Duration(tim.RetractNs))
	s.coreMet.ObserveStage("merge", time.Duration(tim.MergeNs))
}

// traceRequested reports whether the client asked for a span tree
// (X-Podium-Trace: 1 header or ?trace=1).
func traceRequested(r *http.Request) bool {
	return r.Header.Get("X-Podium-Trace") == "1" || r.URL.Query().Get("trace") == "1"
}

// attachStages adds the engine's per-stage children to a trace span.
func attachStages(sp *obs.Span, tim *core.StageTimings) {
	if sp == nil || tim == nil || tim.Runs == 0 {
		return
	}
	sp.AttachChild("init", time.Duration(tim.InitNs))
	sp.AttachChild("argmax", time.Duration(tim.ArgmaxNs))
	sp.AttachChild("retract", time.Duration(tim.RetractNs))
	sp.AttachChild("merge", time.Duration(tim.MergeNs))
}
