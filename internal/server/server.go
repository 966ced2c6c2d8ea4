// Package server is the Go counterpart of the paper's prototype web stack
// (Section 7, Figure 1): the grouping module runs offline at construction,
// the selection module answers selection requests with explanations, and the
// visualization payloads carry exactly the Definition 5.1 structures the UI
// renders (Figure 2) — per-user top groups, covered/uncovered group lists,
// and population-versus-subset score distributions. Clients customize
// selections by posting the Definition 6.1 feedback sets. An administrator
// may preload named diversification configurations with textual
// descriptions, as the prototype allows.
package server

import (
	"encoding/json"
	"fmt"
	"html"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/profile"
	"podium/internal/query"
)

// NamedConfig is an administrator-provided diversification configuration.
type NamedConfig struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Budget      int          `json:"budget"`
	Weights     string       `json:"weights"`
	Coverage    string       `json:"coverage"`
	Rule        string       `json:"rule,omitempty"`
	Feedback    FeedbackJSON `json:"feedback"`
}

// FeedbackJSON is the wire form of core.Feedback.
type FeedbackJSON struct {
	MustHave         []int `json:"must_have,omitempty"`
	MustNot          []int `json:"must_not,omitempty"`
	Priority         []int `json:"priority,omitempty"`
	Standard         []int `json:"standard,omitempty"`
	StandardExplicit bool  `json:"standard_explicit,omitempty"`
}

func (f FeedbackJSON) toCore() core.Feedback {
	conv := func(ids []int) []groups.GroupID {
		out := make([]groups.GroupID, len(ids))
		for i, id := range ids {
			out[i] = groups.GroupID(id)
		}
		return out
	}
	return core.Feedback{
		MustHave:         conv(f.MustHave),
		MustNot:          conv(f.MustNot),
		Priority:         conv(f.Priority),
		Standard:         conv(f.Standard),
		StandardExplicit: f.StandardExplicit,
	}
}

func (f FeedbackJSON) empty() bool {
	return len(f.MustHave) == 0 && len(f.MustNot) == 0 && len(f.Priority) == 0 &&
		len(f.Standard) == 0 && !f.StandardExplicit
}

// Server serves one repository through immutable snapshots: the current
// epoch — repository view, group index, memoized diversification tables —
// lives behind an atomic pointer, each request loads it exactly once at
// entry, and every read handler runs lock-free against that epoch. The
// plain Server publishes a single epoch at construction (the offline
// grouping module of Section 7); MutableServer republishes a fresh epoch
// after every mutation batch.
type Server struct {
	name    string
	configs []NamedConfig
	// routes is the declarative endpoint table (routes.go); mux holds only
	// out-of-table handlers (ad hoc test routes, optional pprof) and serves
	// as the dispatch fallback.
	routes *router
	mux    *http.ServeMux
	snap   atomic.Pointer[Snapshot]
	camps  *campaignRegistry
	// draining flips /readyz to 503 once graceful shutdown begins.
	draining atomic.Bool

	// Observability (metrics.go): one registry per server, pre-registered
	// with the server, core, campaign and client metric families so
	// /api/v1/metrics exposes every layer from the first scrape. obsOff
	// disables request instrumentation for the overhead benchmark.
	reg       *obs.Registry
	met       *obs.ServerMetrics
	coreMet   *obs.CoreMetrics
	campMet   *obs.CampaignMetrics
	obsOff    atomic.Bool
	unmatched *routeMetrics

	// selCache is the cross-epoch watermark-keyed select cache (selcache.go),
	// the only select-response cache: with it off, every select computes.
	// On the plain Server nothing ever advances the watermark, so after the
	// first computation every select shape is a permanent hit; MutableServer's
	// apply loop feeds it the per-batch change records.
	selCache *selectCache
}

// New builds a server over repo, running the grouping module with cfg.
func New(name string, repo *profile.Repository, cfg groups.Config, configs []NamedConfig) *Server {
	s := &Server{
		name:    name,
		configs: configs,
		camps:   newCampaignRegistry(),
	}
	s.reg = obs.NewRegistry()
	s.met = obs.NewServerMetrics(s.reg)
	s.coreMet = obs.NewCoreMetrics(s.reg)
	s.campMet = obs.NewCampaignMetrics(s.reg)
	// The client family registers here too: a server-side scrape then covers
	// all four layers, and co-located clients (campaign drivers, tests) feed
	// it via obs.NewClientMetrics(s.Metrics()).
	obs.NewClientMetrics(s.reg)
	s.selCache = newSelectCache(obs.NewSelectCacheMetrics(s.reg))
	s.publish(newSnapshot(0, repo, groups.Build(repo, cfg)))
	s.mux = http.NewServeMux()
	s.buildRoutes()
	return s
}

// Snapshot returns the currently published epoch. Handlers load it once at
// entry so one request never observes two epochs; external callers get a
// consistent read-only view.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// publish atomically installs the next epoch for all subsequent requests.
func (s *Server) publish(sn *Snapshot) {
	s.snap.Store(sn)
	s.met.Epoch.Set(int64(sn.Epoch()))
	s.met.RepoBytes.Set(sn.Repo().ApproxBytes())
}

// writeJSON encodes v compactly — indented output roughly doubles hot-path
// payload bytes, so pretty-printing is opt-in via ?pretty=1. Marshalling
// happens before the header is written, so an encoding failure surfaces as
// a 500 instead of a silently truncated 200.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	var data []byte
	var err error
	if r != nil && r.URL.Query().Get("pretty") == "1" {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		// Marshalling happened before any header write, so the failure can
		// still surface as a clean 500 in the unified envelope.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":{"code":%q,"message":%q,"status":500}}`+"\n",
			codeInternal, "encoding response: "+err.Error())
		return
	}
	writeJSONRaw(w, status, append(data, '\n'))
}

// writeJSONRaw writes JSON bytes pre-marshaled by the select cache (or by
// writeJSON), skipping re-encoding on the hot path. It declares the body's
// Content-Length, so a large body goes out unchunked and a client can read
// it into one buffer of that size. Once the header is out a failed or short
// body write cannot be turned into an error status; instead of leaving a
// silently truncated payload that parses as broken JSON downstream, it logs
// and aborts the connection (http.ErrAbortHandler) so the client sees a
// transport error.
func writeJSONRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	if n, err := w.Write(data); err != nil || n < len(data) {
		log.Printf("server: aborting connection: wrote %d/%d response bytes: %v", n, len(data), err)
		panic(http.ErrAbortHandler)
	}
}

// Stable machine-readable error codes carried by the unified envelope. The
// set is deliberately small: clients branch on these (or on the status), not
// on message text.
const (
	codeInvalidArgument  = "invalid_argument"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeOverloaded       = "overloaded"
	codeUnavailable      = "unavailable"
	codeInternal         = "internal"
)

// errorBody is the inner object of the unified error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

// errorEnvelope is the one shape every error response takes:
// {"error":{"code":"...","message":"...","status":N}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

func errBody(status int, code, format string, args ...interface{}) errorEnvelope {
	return errorEnvelope{errorBody{Code: code, Message: fmt.Sprintf(format, args...), Status: status}}
}

func writeError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...interface{}) {
	writeJSON(w, r, status, errBody(status, code, format, args...))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	writeJSON(w, r, http.StatusOK, map[string]interface{}{
		"name":       s.name,
		"users":      sn.Repo().NumUsers(),
		"properties": sn.Repo().NumProperties(),
		"groups":     sn.Index().NumGroups(),
		"epoch":      sn.Epoch(),
	})
}

func (s *Server) handleConfigurations(w http.ResponseWriter, r *http.Request) {
	if s.configs == nil {
		writeJSON(w, r, http.StatusOK, []NamedConfig{})
		return
	}
	writeJSON(w, r, http.StatusOK, s.configs)
}

// ruleJSON is one row of the rule-discovery endpoint.
type ruleJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Default     bool   `json:"default,omitempty"`
}

// handleRules serves GET /api/v1/rules: the registered selection rules in
// stable wire order, with the default marked. Clients pass a listed name as
// the select request's "rule" field.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	rules := core.Rules()
	out := make([]ruleJSON, 0, len(rules))
	for _, rl := range rules {
		out = append(out, ruleJSON{Name: rl.Name(), Description: rl.Description(), Default: rl.IsDefault()})
	}
	writeJSON(w, r, http.StatusOK, out)
}

// groupJSON is one group explanation row for the UI's group list.
type groupJSON struct {
	ID     int     `json:"id"`
	Label  string  `json:"label"`
	Size   int     `json:"size"`
	Weight float64 `json:"weight"`
}

func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "bad limit %q", v)
			return
		}
		limit = n
	}
	sn := s.Snapshot()
	top := sn.TopKBySize(limit)
	out := make([]groupJSON, 0, len(top))
	for _, gid := range top {
		g := sn.Index().Group(gid)
		out = append(out, groupJSON{
			ID:     int(gid),
			Label:  g.Label(sn.Repo().Catalog()),
			Size:   g.Size(),
			Weight: float64(g.Size()), // LBS view for display
		})
	}
	writeJSON(w, r, http.StatusOK, out)
}

// selectRequest is the selection-module request body.
type selectRequest struct {
	Budget   int    `json:"budget"`
	Weights  string `json:"weights"`  // Iden | LBS | EBS (default LBS)
	Coverage string `json:"coverage"` // Single | Prop (default Single)
	// Rule selects the marginal-gain objective (GET /api/v1/rules lists the
	// registered names; empty selects the default coverage rule).
	Rule     string       `json:"rule,omitempty"`
	Feedback FeedbackJSON `json:"feedback"`
	// Config selects a preloaded named configuration instead of the inline
	// fields above.
	Config string `json:"config,omitempty"`
	// TopK bounds the headline coverage statistic (default 200).
	TopK int `json:"top_k,omitempty"`
	// Parallelism is the selection engine's worker count (0 = sequential,
	// capped at the server's CPU count). It changes latency, never results.
	Parallelism int `json:"parallelism,omitempty"`
}

type selectedUserJSON struct {
	ID       int      `json:"id"`
	Name     string   `json:"name"`
	Marginal float64  `json:"marginal"`
	Groups   []string `json:"top_groups"`
}

type selectResponse struct {
	Users []selectedUserJSON `json:"users"`
	Score float64            `json:"score"`
	// Rule names the selection rule that produced the panel. Omitted for the
	// default coverage rule, keeping default responses byte-identical to
	// pre-rules servers.
	Rule          string            `json:"rule,omitempty"`
	TopKCovered   int               `json:"top_k_covered"`
	TopK          int               `json:"top_k"`
	PriorityScore float64           `json:"priority_score,omitempty"`
	StandardScore float64           `json:"standard_score,omitempty"`
	Groups        []subsetGroupJSON `json:"groups"`
	// Trace is the per-stage span tree, attached only when the request asks
	// for it (X-Podium-Trace: 1 or ?trace=1); untraced responses are
	// byte-identical to pre-trace servers.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

type subsetGroupJSON struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Weight   float64 `json:"weight"`
	Required int     `json:"required"`
	Actual   int     `json:"actual"`
	Covered  bool    `json:"covered"`
}

// SelectParams is a selection's parameters as CheckSelect accepted them.
type SelectParams struct {
	Weights  groups.WeightScheme
	Coverage groups.CoverageScheme
	Rule     *core.Rule
	Budget   int
}

// CheckSelect is the one check on a selection's parameters: the select
// handler, campaign creation and the shard coordinator all run it, so they
// accept and refuse the same requests with the same messages. Weights
// ("", "iden", "lbs", "ebs"; empty selects LBS), coverage ("", "single",
// "prop"; empty selects Single) and rule (a registered name, as GET
// /api/v1/rules lists them; empty selects the default coverage rule) parse
// case-insensitively, and a budget below 1 becomes 8. It refuses EBS under a
// rule without exact rank arithmetic, feedback (fb, nil for none) under any
// rule but the default, and, through CheckFinite, a selection whose response
// would carry a non-finite number. Callers answer an error with 400.
func (sn *Snapshot) CheckSelect(weights, coverage, rule string, budget int, fb *core.Feedback) (SelectParams, error) {
	var p SelectParams
	switch strings.ToLower(weights) {
	case "", "lbs":
		p.Weights = groups.WeightLBS
	case "iden":
		p.Weights = groups.WeightIden
	case "ebs":
		p.Weights = groups.WeightEBS
	default:
		return p, fmt.Errorf("unknown weight scheme %q", weights)
	}
	switch strings.ToLower(coverage) {
	case "", "single":
		p.Coverage = groups.CoverSingle
	case "prop":
		p.Coverage = groups.CoverProp
	default:
		return p, fmt.Errorf("unknown coverage scheme %q", coverage)
	}
	r, err := core.LookupRule(strings.ToLower(rule))
	if err != nil {
		return p, fmt.Errorf("unknown rule %q (registered rules: %s)", rule, strings.Join(core.RuleNames(), ", "))
	}
	p.Rule = r
	if p.Weights == groups.WeightEBS && !r.EBSCompatible() {
		return p, fmt.Errorf("rule %q does not support EBS weights (exact rank arithmetic implements only the coverage objective)", r.Name())
	}
	if fb != nil && !r.IsDefault() {
		return p, fmt.Errorf("feedback refinement supports only the default coverage rule (got rule %q)", r.Name())
	}
	p.Budget = budget
	if p.Budget <= 0 {
		p.Budget = 8
	}
	return p, sn.CheckFinite(p.Weights, p.Coverage, p.Budget, fb)
}

// ClampParallelism bounds a request's worker count to [0, NumCPU]: negative
// values (which would otherwise reach the core as a nonsense worker count)
// mean sequential, and requests cannot demand more workers than the host has
// CPUs. The single-node handlers and the coordinator's merge both apply it.
func ClampParallelism(p int) int {
	if p < 0 {
		return 0
	}
	if max := runtime.NumCPU(); p > max {
		return max
	}
	return p
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var sp *obs.Span
	if traceRequested(r) {
		sp = obs.StartSpan("select")
	}
	dsp := sp.StartChild("decode")
	var req selectRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "decoding request: %v", err)
		return
	}
	if req.Config != "" {
		found := false
		for _, c := range s.configs {
			if c.Name == req.Config {
				if req.Budget == 0 {
					req.Budget = c.Budget
				}
				if req.Weights == "" {
					req.Weights = c.Weights
				}
				if req.Coverage == "" {
					req.Coverage = c.Coverage
				}
				if req.Rule == "" {
					req.Rule = c.Rule
				}
				if req.Feedback.empty() {
					req.Feedback = c.Feedback
				}
				found = true
				break
			}
		}
		if !found {
			writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "unknown configuration %q", req.Config)
			return
		}
	}
	if req.TopK <= 0 {
		req.TopK = 200
	}
	var fb *core.Feedback
	if !req.Feedback.empty() {
		cf := req.Feedback.toCore()
		fb = &cf
	}
	sn := s.Snapshot()
	p, err := sn.CheckSelect(req.Weights, req.Coverage, req.Rule, req.Budget, fb)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	dsp.End()
	opt := core.Options{Parallelism: ClampParallelism(req.Parallelism)}
	var tim *core.StageTimings
	if s.obsEnabled() || sp != nil {
		tim = &core.StageTimings{}
		opt.Timings = tim
	}

	if s.selCache.enabled() {
		if sp != nil {
			// Traced requests are diagnostic: they want the real per-stage
			// span tree, which a pre-marshaled cache hit cannot produce.
			// They compute below.
			s.selCache.noteBypass(p.Rule.Name())
		} else {
			// Cross-epoch watermark-keyed path (selcache.go): the response is
			// served pre-marshaled for as long as no selection-relevant
			// mutation has landed, and a miss repairs the persistent selector
			// state instead of recomputing base marginals from scratch. The
			// key carries the response shape — ?pretty=1 and compact
			// responses are distinct pre-marshaled entries — and the
			// canonicalized feedback restriction.
			pretty := r.URL.Query().Get("pretty") == "1"
			k := selCacheKey{ws: p.Weights, cs: p.Coverage, budget: p.Budget, topK: req.TopK, rule: p.Rule.Name(), pretty: pretty}
			if fb != nil {
				k.fb = feedbackCacheKey(req.Feedback)
			}
			data, err := s.selCache.respond(sn, k, p.Rule, fb, opt)
			s.observeEngine(tim)
			if err != nil {
				writeSelectError(w, r, fb != nil, err)
				return
			}
			writeJSONRaw(w, http.StatusOK, data)
			return
		}
	}

	// Uncached: traced selects, and every select while the cache is off.
	resp, err := sn.buildSelect(p.Weights, p.Coverage, p.Budget, req.TopK, p.Rule, fb, opt, sp)
	s.observeEngine(tim)
	if err != nil {
		writeSelectError(w, r, fb != nil, err)
		return
	}
	resp.Trace = sp.JSON()
	writeJSON(w, r, http.StatusOK, resp)
}

// writeSelectError answers a select that failed to compute: a feedback
// select fails only on invalid feedback (400); a feedback-free one only if
// its response cannot be built or encoded (500).
func writeSelectError(w http.ResponseWriter, r *http.Request, feedback bool, err error) {
	if feedback {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	writeError(w, r, http.StatusInternalServerError, codeInternal, "encoding response: %v", err)
}

// buildSelectResponse assembles the visualization payload shared by the
// select and query endpoints. rl (non-nil) is the rule the selection ran
// under; the body names it unless it is the default.
func buildSelectResponse(inst *groups.Instance, res *core.Result, custom *core.CustomResult, rl *core.Rule, topK int) selectResponse {
	rep := explain.NewReport(inst, res, topK)
	resp := selectResponse{
		Score: inst.Score(res.Users),
		TopK:  rep.TopK, TopKCovered: rep.TopKCovered,
	}
	if !rl.IsDefault() {
		resp.Rule = rl.Name()
	}
	if custom != nil {
		resp.PriorityScore = custom.PriorityScore
		resp.StandardScore = custom.StandardScore
	}
	// An empty panel or index keeps its list nil, which encodes as null.
	if len(rep.Users) > 0 {
		resp.Users = make([]selectedUserJSON, len(rep.Users))
	}
	for i, ue := range rep.Users {
		resp.Users[i] = selectedUserJSON{ID: int(ue.User), Name: ue.Name, Marginal: ue.Marginal, Groups: topGroupLabels(ue)}
	}
	if len(rep.Groups) > 0 {
		resp.Groups = make([]subsetGroupJSON, len(rep.Groups))
	}
	for i, sg := range rep.Groups {
		resp.Groups[i] = subsetGroupJSON{
			ID:       int(sg.Group.ID),
			Label:    sg.Group.Label,
			Weight:   sg.Group.Weight,
			Required: sg.Required,
			Actual:   sg.Actual,
			Covered:  sg.Covered,
		}
	}
	return resp
}

// topGroupLabels returns the labels of a user's five heaviest groups (nil
// for a user in no group).
func topGroupLabels(ue explain.User) []string {
	if len(ue.Groups) == 0 {
		return nil
	}
	out := make([]string, min(5, len(ue.Groups)))
	for i := range out {
		out[i] = ue.Groups[i].Label
	}
	return out
}

// handleQuery runs a declarative-language selection (see internal/query).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var sp *obs.Span
	if traceRequested(r) {
		sp = obs.StartSpan("query")
	}
	var req struct {
		Query string `json:"query"`
		TopK  int    `json:"top_k,omitempty"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "decoding request: %v", err)
		return
	}
	psp := sp.StartChild("parse")
	q, err := query.Parse(req.Query)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	if err := q.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	if q.Buckets != 0 {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "BUCKETS is fixed at server start; omit the clause")
		return
	}
	psp.End()
	ws := groups.WeightLBS
	if q.WeightsSet {
		ws = q.Weights
	}
	cs := groups.CoverSingle
	if q.CoverageSet {
		cs = q.Coverage
	}
	sn := s.Snapshot()
	csp := sp.StartChild("compile")
	fb, err := q.Compile(sn.Index())
	csp.End()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	if req.TopK <= 0 {
		req.TopK = 200
	}
	if err := sn.CheckFinite(ws, cs, q.Budget, &fb); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	opt := core.Options{}
	var tim *core.StageTimings
	if s.obsEnabled() || sp != nil {
		tim = &core.StageTimings{}
		opt.Timings = tim
	}
	resp, err := sn.buildSelect(ws, cs, q.Budget, req.TopK, core.DefaultRule(), &fb, opt, sp)
	s.observeEngine(tim)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	resp.Trace = sp.JSON()
	writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleDistribution(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	label := r.URL.Query().Get("prop")
	pid, ok := sn.Repo().Catalog().Lookup(label)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "unknown property %q", label)
		return
	}
	var users []profile.UserID
	if raw := r.URL.Query().Get("users"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 0 || v >= sn.Repo().NumUsers() {
				writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "bad user id %q", part)
				return
			}
			users = append(users, profile.UserID(v))
		}
	}
	inst := sn.Instance(groups.WeightLBS, groups.CoverSingle, 8)
	all, subset := explain.Distribution(inst, users, pid)
	buckets := make([]string, 0, len(all))
	for _, b := range sn.Index().Buckets(pid) {
		buckets = append(buckets, b.String())
	}
	writeJSON(w, r, http.StatusOK, map[string]interface{}{
		"property": label,
		"buckets":  buckets,
		"all":      all,
		"subset":   subset,
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, indexHTMLHead, s.name, sn.Repo().NumUsers(), sn.Repo().NumProperties(), sn.Index().NumGroups())
	// The API table renders from the live route table so this page cannot
	// drift from dispatch.
	for _, row := range s.Routes() {
		fmt.Fprintf(w, "<tr><td>%s</td><td><code>%s</code></td><td>%s</td></tr>\n",
			html.EscapeString(row[0]), html.EscapeString(row[1]), html.EscapeString(row[2]))
	}
	fmt.Fprint(w, indexHTMLTail)
}

const indexHTMLHead = `<!doctype html>
<html><head><meta charset="utf-8"><title>Podium</title>
<style>body{font-family:sans-serif;margin:2rem;max-width:48rem}code{background:#eee;padding:0 .3em}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:.2em .6em;text-align:left}</style>
</head><body>
<h1>Podium — diverse user selection</h1>
<p>Dataset <b>%s</b>: %d users, %d properties, %d groups.</p>
<h2>API</h2>
<p>API paths live under <code>/api/v1</code>. Selection endpoints accept
<code>X-Podium-Trace: 1</code> (or <code>?trace=1</code>) to attach a span
tree to the response; <code>GET /api/v1/metrics</code> serves Prometheus text
exposition.</p>
<table>
<tr><th>route</th><th>path</th><th>methods</th></tr>
`

const indexHTMLTail = `</table>
</body></html>
`

// Repository exposes the currently published repository view (read-only use).
func (s *Server) Repository() *profile.Repository { return s.Snapshot().Repo() }
