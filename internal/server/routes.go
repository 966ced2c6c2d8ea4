package server

// The route table: every endpoint is declared once, with its method
// constraints and its /api/v1 path. It is the only dispatcher for every
// server mode: a mutable server and a shard coordinator register their
// endpoints in it (Handle) rather than intercepting paths in front of it.
// Dispatch walks the table before falling back to the embedded ServeMux,
// which holds only out-of-table handlers (ad hoc test routes, optional
// pprof). The table is also where per-route observability lives: request
// counters by (route, method, code) and a latency histogram per route,
// recorded by a thin wrapper around each handler.
//
// Path parameters ({id}) are matched whole: a path with trailing garbage
// after a parameter does not match and falls through to the unified 404.

import (
	"context"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// route is one row of the table.
type route struct {
	name string
	path string
	segs []routeSeg
	// handlers maps method → handler. nil means any method is accepted and
	// any dispatches to anyMethod (index, healthz, readyz — probes send
	// HEADs and the pre-table handlers never method-checked these).
	handlers  map[string]http.HandlerFunc
	anyMethod http.HandlerFunc
	allow     string
	metrics   *routeMetrics
}

type routeSeg struct {
	lit   string
	param string // non-empty → wildcard segment captured under this name
}

type router struct {
	routes []*route
}

func parseSegs(pattern string) []routeSeg {
	parts := strings.Split(strings.TrimPrefix(pattern, "/"), "/")
	segs := make([]routeSeg, len(parts))
	for i, p := range parts {
		if strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}") {
			segs[i] = routeSeg{param: p[1 : len(p)-1]}
		} else {
			segs[i] = routeSeg{lit: p}
		}
	}
	return segs
}

// matchSegs matches a concrete request path (starting with '/') against a
// parsed pattern without splitting the path. A trailing slash is a distinct,
// unmatched path — "/api/v1/status/" is not "/api/v1/status".
func matchSegs(pat []routeSeg, path string) (bool, map[string]string) {
	i := 1
	var params map[string]string
	last := len(pat) - 1
	for si, seg := range pat {
		j := strings.IndexByte(path[i:], '/')
		var part string
		if j < 0 {
			part = path[i:]
			i = len(path)
		} else {
			part = path[i : i+j]
			i += j + 1
		}
		if seg.param != "" {
			if part == "" {
				return false, nil
			}
			if params == nil {
				params = make(map[string]string, 2)
			}
			params[seg.param] = part
		} else if part != seg.lit {
			return false, nil
		}
		if si < last && j < 0 {
			return false, nil // path shorter than pattern
		}
		if si == last && j >= 0 {
			return false, nil // leftover segments or trailing slash
		}
	}
	return true, params
}

func (rt *router) match(path string) (*route, map[string]string) {
	for _, r := range rt.routes {
		if ok, params := matchSegs(r.segs, path); ok {
			return r, params
		}
	}
	return nil, nil
}

// paramsCtxKey carries a matched route's path parameters in the request
// context.
type paramsCtxKey struct{}

// pathParam returns the named path parameter captured by the route table
// ("" when absent).
func pathParam(r *http.Request, name string) string {
	if m, ok := r.Context().Value(paramsCtxKey{}).(map[string]string); ok {
		return m[name]
	}
	return ""
}

// addRoute registers one endpoint; handlers nil + any non-nil accepts every
// method.
func (s *Server) addRoute(name, path string, handlers map[string]http.HandlerFunc, any http.HandlerFunc) {
	rt := &route{
		name:      name,
		path:      path,
		segs:      parseSegs(path),
		handlers:  handlers,
		anyMethod: any,
	}
	methods := rt.setAllow()
	if any != nil {
		methods = []string{http.MethodGet}
	}
	rt.metrics = newRouteMetrics(s.met, name, methods)
	s.routes.routes = append(s.routes.routes, rt)
}

// setAllow derives the route's Allow header from its handlers and returns
// the sorted methods.
func (rt *route) setAllow() []string {
	methods := make([]string, 0, len(rt.handlers))
	for m := range rt.handlers {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	rt.allow = strings.Join(methods, ", ")
	return methods
}

// Handle sets the handler for method on path, before the server starts
// serving. On a path already in the table it replaces that method's handler
// and keeps the route's name and metrics; a new path adds a route called
// name. The mutable server adds its write endpoints this way and the shard
// coordinator takes over select and campaign creation, so every server mode
// dispatches, counts and answers 405s through the one table.
func (s *Server) Handle(name, method, path string, h http.HandlerFunc) {
	for _, rt := range s.routes.routes {
		if rt.path == path {
			rt.handlers[method] = h
			rt.setAllow()
			return
		}
	}
	s.addRoute(name, path, map[string]http.HandlerFunc{method: h}, nil)
}

// buildRoutes declares the single-node API surface. NewMutableOpts and the
// shard coordinator add theirs through Handle before the server serves.
func (s *Server) buildRoutes() {
	get := func(h http.HandlerFunc) map[string]http.HandlerFunc {
		return map[string]http.HandlerFunc{http.MethodGet: h}
	}
	post := func(h http.HandlerFunc) map[string]http.HandlerFunc {
		return map[string]http.HandlerFunc{http.MethodPost: h}
	}
	s.routes = &router{}
	s.addRoute("status", "/api/v1/status", get(s.handleStatus), nil)
	s.addRoute("groups", "/api/v1/groups", get(s.handleGroups), nil)
	s.addRoute("configurations", "/api/v1/configurations", get(s.handleConfigurations), nil)
	s.addRoute("select", "/api/v1/select", post(s.handleSelect), nil)
	s.addRoute("rules", "/api/v1/rules", get(s.handleRules), nil)
	s.addRoute("query", "/api/v1/query", post(s.handleQuery), nil)
	s.addRoute("distribution", "/api/v1/distribution", get(s.handleDistribution), nil)
	s.addRoute("campaigns", "/api/v1/campaigns", map[string]http.HandlerFunc{
		http.MethodGet:  s.handleCampaignsList,
		http.MethodPost: s.createCampaign,
	}, nil)
	s.addRoute("campaign", "/api/v1/campaigns/{id}", get(s.handleCampaignGet), nil)
	s.addRoute("campaign-cancel", "/api/v1/campaigns/{id}/cancel", post(s.handleCampaignCancel), nil)
	s.addRoute("metrics", "/api/v1/metrics", get(s.handleMetrics), nil)
	s.addRoute("healthz", "/healthz", nil, s.handleHealthz)
	s.addRoute("readyz", "/readyz", nil, s.handleReadyz)
	s.addRoute("index", "/", nil, s.handleIndex)
	// Unmatched paths are counted under one fixed label to keep the metric's
	// cardinality bounded no matter what clients probe for.
	s.unmatched = newRouteMetrics(s.met, "unmatched", nil)
}

// ServeHTTP implements http.Handler: route-table dispatch first, then the
// embedded mux (test handlers, pprof), then the unified 404.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt, params := s.routes.match(r.URL.Path)
	if rt == nil {
		if h, pat := s.mux.Handler(r); pat != "" {
			h.ServeHTTP(w, r)
			return
		}
		if s.obsEnabled() {
			s.unmatched.count(r.Method, http.StatusNotFound)
		}
		writeError(w, r, http.StatusNotFound, codeNotFound, "no such endpoint %s", r.URL.Path)
		return
	}
	if params != nil {
		r = r.WithContext(context.WithValue(r.Context(), paramsCtxKey{}, params))
	}
	h := rt.anyMethod
	if h == nil {
		h = rt.handlers[r.Method]
	}
	if !s.obsEnabled() {
		if h == nil {
			rt.writeMethodNotAllowed(w, r)
			return
		}
		h(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		rt.metrics.latency.Observe(time.Since(start).Seconds())
		code := sw.status
		if e := recover(); e != nil {
			if code == 0 {
				// Panicked before writing; the hardening middleware will
				// turn this into a 500 (or abort the connection).
				code = http.StatusInternalServerError
			}
			rt.metrics.count(r.Method, code)
			panic(e)
		}
		if code == 0 {
			code = http.StatusOK
		}
		rt.metrics.count(r.Method, code)
	}()
	if h == nil {
		rt.writeMethodNotAllowed(sw, r)
		return
	}
	h(sw, r)
}

func (rt *route) writeMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", rt.allow)
	writeError(w, r, http.StatusMethodNotAllowed, codeMethodNotAllowed,
		"method %s not allowed on %s (allow: %s)", r.Method, rt.path, rt.allow)
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// EnablePprof mounts net/http/pprof's handlers on the server's fallback mux
// (behind podium-server's -pprof flag; off by default because the profile
// endpoints are unauthenticated and can stall a core).
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Routes returns (name, path, allow) rows for every table entry — the
// golden route-table test and the index page render from this, so
// documentation cannot drift from dispatch.
func (s *Server) Routes() [][3]string {
	out := make([][3]string, 0, len(s.routes.routes))
	for _, rt := range s.routes.routes {
		allow := rt.allow
		if rt.anyMethod != nil {
			allow = "any"
		}
		out = append(out, [3]string{rt.name, rt.path, allow})
	}
	return out
}
