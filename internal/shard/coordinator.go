package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"podium/internal/client"
	"podium/internal/core"
	"podium/internal/obs"
	"podium/internal/profile"
	"podium/internal/server"
)

// Coordinator is the distributed front of the sharded subsystem: it serves
// from a base server that owns the *global* dataset (for the merge round and
// every read endpoint) and keeps, per shard, a *replica group* — R servers
// holding identical slices of the population. It takes over the base
// server's select and campaign-creation endpoints and adds /api/v1/shards,
// all in the base server's route table; each shard's call goes to the
// healthiest fresh replica (with failover and hedging, see Router), and the
// results merge. Every other endpoint stays the base server's, so a
// coordinator answers the full /api/v1 surface a single-node server does.
//
// Failure semantics: a replica that errors fails over to its siblings; a
// shard is absent from the merge — degraded — only when *every* replica of
// its group has failed through its retry/breaker budget. Only the total loss
// of every shard turns into a 503.
//
// Response identity: select responses report shards, not replicas — the
// per-shard URL is the replica-group spec the coordinator was configured
// with (pipe-joined), never the replica that happened to serve the call.
// Replicas hold identical data and the greedy rounds are deterministic, so a
// merged selection is byte-identical no matter which replica of each group
// answered; the chaos suite asserts exactly that under replica loss.
// Per-replica health lives on /api/v1/shards.
type Coordinator struct {
	base *server.Server
	// spec is each shard's replica-group spec ("url" or "url1|url2"), the
	// shard's identity in select responses and campaign rows.
	spec []string
	reg  *Registry
	rt   *Router
	met  *obs.ShardMetrics

	// poll is the campaign wait-poll interval (shortened in tests).
	poll time.Duration

	// nameID lazily maps global user names → IDs: shard winners come back
	// as names (IDs are shard-local rows) and the merge needs global IDs.
	nameOnce sync.Once
	nameID   map[string]profile.UserID
}

// CoordinatorOptions configures the fan-out clients and the replica health
// model.
type CoordinatorOptions struct {
	// HTTPClient is the transport shared by the replica clients (nil selects
	// http.DefaultClient).
	HTTPClient *http.Client
	// Resilience tunes each replica client's retry policy and circuit
	// breaker. The zero value selects the client package defaults
	// (4 attempts, exponential backoff, no breaker).
	Resilience client.ResilienceOptions
	// Health tunes the replica registry and router (probe cadence, failure
	// tolerance, hedge deadline). The zero value selects the defaults
	// documented on HealthOptions.
	Health HealthOptions
	// Poll is the campaign wait-poll interval (default 100ms).
	Poll time.Duration
}

// NewCoordinator registers a fan-out layer over the given shard specs in
// base's route table, before base serves: POST /api/v1/select and POST
// /api/v1/campaigns fan out, GET /api/v1/shards reports replica health, and
// base keeps every other endpoint and method. Serve base itself (hardened as
// any server is). Each spec names one shard's replica group: either a single
// URL or several joined by "|" ("http://a:8080|http://b:8080"). Shard
// metrics register on base's registry, so they surface through base's
// /api/v1/metrics endpoint.
//
// The background probe loop is NOT started here — call Registry().Start()
// (and Stop()) when the coordinator serves long-lived traffic. Without it
// the first fan-out runs one synchronous probe round and passive outcomes
// keep health moving.
func NewCoordinator(base *server.Server, shardSpecs []string, opt CoordinatorOptions) *Coordinator {
	co := &Coordinator{
		base: base,
		met:  obs.NewShardMetrics(base.Metrics()),
		poll: opt.Poll,
	}
	if co.poll <= 0 {
		co.poll = 100 * time.Millisecond
	}
	health := opt.Health.withDefaults()
	var groups [][]*replica
	replicas := 0
	for _, spec := range shardSpecs {
		var urls []string
		for _, u := range strings.Split(spec, "|") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			continue
		}
		si := len(groups)
		group := make([]*replica, len(urls))
		for i, u := range urls {
			group[i] = &replica{
				shard: si,
				url:   u,
				c:     client.NewResilient(u, opt.HTTPClient, opt.Resilience),
				probe: client.NewWithTimeout(u, opt.HTTPClient, health.ProbeTimeout),
			}
			group[i].upGauge = co.met.ReplicaUp(si, u)
			replicas++
		}
		groups = append(groups, group)
		co.spec = append(co.spec, strings.Join(urls, "|"))
	}
	co.reg = newRegistry(groups, health, co.met)
	co.rt = newRouter(co.reg)
	co.met.Shards.Set(int64(len(groups)))
	co.met.Replicas.Set(int64(replicas))
	base.Handle("select", http.MethodPost, "/api/v1/select", co.handleSelect)
	base.Handle("campaigns", http.MethodPost, "/api/v1/campaigns", co.handleCampaigns)
	base.Handle("shards", http.MethodGet, "/api/v1/shards", co.handleShards)
	return co
}

// Registry exposes the replica health registry, for starting the background
// probe loop and for tests.
func (co *Coordinator) Registry() *Registry { return co.reg }

// coordSelectRequest is the subset of the select surface a coordinator
// accepts: the base selection parameters. Feedback and named configurations
// are rejected — feedback carries group IDs, which are shard-local.
type coordSelectRequest struct {
	Budget      int             `json:"budget"`
	Weights     string          `json:"weights"`
	Coverage    string          `json:"coverage"`
	Rule        string          `json:"rule,omitempty"`
	Feedback    json.RawMessage `json:"feedback"`
	Config      string          `json:"config,omitempty"`
	TopK        int             `json:"top_k,omitempty"`
	Parallelism int             `json:"parallelism,omitempty"`
}

// shardOutcome is one shard's round-1 result.
type shardOutcome struct {
	report  client.ShardReport
	winners []string // winner names in pick order
}

func (co *Coordinator) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req coordSelectRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, r, http.StatusBadRequest, server.CodeInvalidArgument, "decoding request: %v", err)
		return
	}
	if len(req.Feedback) > 0 && string(req.Feedback) != "null" && string(req.Feedback) != "{}" {
		server.WriteError(w, r, http.StatusBadRequest, server.CodeInvalidArgument,
			"feedback is not supported on a coordinator: group ids are shard-local")
		return
	}
	if req.Config != "" {
		server.WriteError(w, r, http.StatusBadRequest, server.CodeInvalidArgument,
			"named configurations are not supported on a coordinator")
		return
	}
	if req.TopK <= 0 {
		req.TopK = 200
	}
	// Checked here rather than letting every shard 400 (or fail to encode
	// an infinite score) and surfacing a misleading "all shards failed" 503.
	sn := co.base.Snapshot()
	p, err := sn.CheckSelect(req.Weights, req.Coverage, req.Rule, req.Budget, nil)
	if err != nil {
		server.WriteError(w, r, http.StatusBadRequest, server.CodeInvalidArgument, "%v", err)
		return
	}

	sp := obs.StartSpan("coordinator.select")
	fsp := sp.StartChild("fanout")
	start := time.Now()
	// Round 1 runs under the same rule on every shard: GreeDi's guarantee
	// (and the per-rule merge below) needs the shard winners to be the
	// rule's own greedy picks, not the default objective's.
	outcomes := co.fanoutSelect(r, client.SelectRequest{
		Budget:   p.Budget,
		Weights:  req.Weights,
		Coverage: req.Coverage,
		Rule:     req.Rule,
		// top_k sizes only the headline statistic, which the merge ignores;
		// every leg still lists every group of its shard's index.
		TopK: 1,
	})
	co.met.Latency.Observe(time.Since(start).Seconds())
	fsp.End()

	var candidates []profile.UserID
	var reports []client.ShardReport
	live, degraded := 0, false
	for _, o := range outcomes {
		reports = append(reports, o.report)
		if !o.report.OK {
			degraded = true
			continue
		}
		live++
		for _, name := range o.winners {
			if id, ok := co.lookupUser(name); ok {
				candidates = append(candidates, id)
			}
		}
	}
	co.met.Live.Set(int64(live))
	if live == 0 {
		server.WriteError(w, r, http.StatusServiceUnavailable, server.CodeUnavailable,
			"all %d shards failed", len(co.spec))
		return
	}
	if degraded {
		co.met.Degraded.Inc()
	} else {
		co.met.Selects.Inc()
	}

	msp := sp.StartChild("merge")
	inst := sn.Instance(p.Weights, p.Coverage, p.Budget)
	res, err := core.MergeGreedyRule(inst, candidates, p.Budget, p.Rule, core.Options{Parallelism: server.ClampParallelism(req.Parallelism)})
	msp.End()
	if err != nil {
		server.WriteError(w, r, http.StatusInternalServerError, server.CodeInternal, "merge: %v", err)
		return
	}
	sp.End()

	extra := map[string]interface{}{
		"degraded": degraded,
		"shards":   reports,
	}
	if r.URL.Query().Get("trace") == "1" || r.Header.Get("X-Podium-Trace") == "1" {
		extra["trace"] = sp.JSON()
	}
	data, err := sn.RenderSelection(p.Weights, p.Coverage, p.Budget, req.TopK, p.Rule, res, extra)
	if err != nil {
		server.WriteError(w, r, http.StatusInternalServerError, server.CodeInternal, "%v", err)
		return
	}
	server.WriteJSONRaw(w, http.StatusOK, data)
}

// fanoutSelect runs round 1 on every shard concurrently, each shard's call
// routed across its replica group with failover and hedging. A shard whose
// every replica fails comes back not-OK; reported epochs are the registry's
// reconciled (freshest known) epoch per shard, so a lagging replica cannot
// misstamp the merge.
func (co *Coordinator) fanoutSelect(r *http.Request, req client.SelectRequest) []shardOutcome {
	ctx := r.Context()
	co.reg.ensureProbed(ctx)
	outcomes := make([]shardOutcome, len(co.spec))
	var wg sync.WaitGroup
	for i := range co.spec {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := shardOutcome{report: client.ShardReport{URL: co.spec[i], Epoch: co.reg.shardEpoch(i)}}
			defer func() { outcomes[i] = out }()
			v, _, err := co.rt.Do(ctx, i, func(ctx context.Context, c *client.Client) (interface{}, error) {
				return c.SelectCtx(ctx, req)
			})
			if err != nil {
				out.report.Error = err.Error()
				co.met.FanoutErrs.Inc()
				return
			}
			sel := v.(client.Selection)
			out.report.OK = true
			out.report.Winners = len(sel.Users)
			for _, u := range sel.Users {
				out.winners = append(out.winners, u.Name)
			}
			co.met.Fanouts.Inc()
		}(i)
	}
	wg.Wait()
	return outcomes
}

// lookupUser resolves a global user name to its ID, building the name table
// on first use. Unknown names (a shard serving data the coordinator has
// never seen) are dropped from the merge rather than failing it.
func (co *Coordinator) lookupUser(name string) (profile.UserID, bool) {
	co.nameOnce.Do(func() {
		repo := co.base.Repository()
		co.nameID = make(map[string]profile.UserID, repo.NumUsers())
		for u := 0; u < repo.NumUsers(); u++ {
			co.nameID[repo.UserName(profile.UserID(u))] = profile.UserID(u)
		}
	})
	id, ok := co.nameID[name]
	return id, ok
}

// handleShards runs a synchronous probe round and reports each shard's
// health: the shard-level roll-up (ok when ANY replica is healthy, users and
// epoch from the healthiest record) plus the per-replica detail.
func (co *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	type shardHealth struct {
		URL      string        `json:"url"`
		OK       bool          `json:"ok"`
		Users    int           `json:"users"`
		Groups   int           `json:"groups"`
		Epoch    uint64        `json:"epoch"`
		Replicas []ReplicaInfo `json:"replicas"`
		Error    string        `json:"error,omitempty"`
	}
	co.reg.ProbeAll(r.Context())
	snap := co.reg.Snapshot()
	out := make([]shardHealth, len(snap))
	live := 0
	for si, rows := range snap {
		h := shardHealth{URL: co.spec[si], Epoch: co.reg.shardEpoch(si), Replicas: rows}
		for _, rep := range rows {
			if !rep.Healthy {
				continue
			}
			if !h.OK {
				h.Users, h.Groups = rep.Users, rep.Groups
			}
			h.OK = true
		}
		if h.OK {
			live++
		} else {
			h.Error = fmt.Sprintf("all %d replicas unhealthy", len(rows))
		}
		out[si] = h
	}
	co.met.Live.Set(int64(live))
	server.WriteJSON(w, r, http.StatusOK, out)
}

// coordCampaignJSON is the aggregated response of a fanned-out campaign.
type coordCampaignJSON struct {
	Degraded bool               `json:"degraded"`
	Budget   int                `json:"budget"`
	Accepted int                `json:"accepted"`
	Declined int                `json:"declined"`
	Dead     int                `json:"dead"`
	Shards   []coordCampaignRow `json:"shards"`
}

type coordCampaignRow struct {
	URL string `json:"url"`
	// Replica is the replica that accepted the wave; follow-up polling is
	// pinned to it (a sibling has no record of the campaign ID).
	Replica  string  `json:"replica,omitempty"`
	ID       int     `json:"id"`
	State    string  `json:"state"`
	Budget   int     `json:"budget"`
	Accepted int     `json:"accepted"`
	Declined int     `json:"declined"`
	Dead     int     `json:"dead"`
	Coverage float64 `json:"coverage"`
	Error    string  `json:"error,omitempty"`
}

// handleCampaigns fans one solicitation campaign out to every shard,
// splitting the budget proportionally to shard populations, and waits for
// the per-shard campaigns to reach a terminal state. Campaign creation is
// not idempotent (a duplicate wave would double-solicit users), so it routes
// sequentially — failover only, never a hedge — and the wait is pinned to
// the replica that accepted the wave. A shard that fails entirely is
// reported and skipped — the aggregate is degraded, never an error, unless
// no shard accepted the wave at all.
func (co *Coordinator) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	var req client.CampaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, r, http.StatusBadRequest, server.CodeInvalidArgument, "decoding request: %v", err)
		return
	}
	// The select's parameter check, run before any fan-out: a bad weight
	// scheme or rule is the caller's 400, not a degraded 200 whose every
	// shard row carries its shard's 400.
	p, err := co.base.Snapshot().CheckSelect(req.Weights, req.Coverage, req.Rule, req.Budget, nil)
	if err != nil {
		server.WriteError(w, r, http.StatusBadRequest, server.CodeInvalidArgument, "%v", err)
		return
	}
	req.Budget = p.Budget

	// Budget split: proportional to shard population, each live shard
	// getting at least 1. Populations come from a fresh probe round — the
	// same probes that drive the health registry.
	co.reg.ProbeAll(r.Context())
	users := make([]int, len(co.spec))
	total := 0
	for i := range co.spec {
		users[i] = co.reg.shardUsers(i)
		total += users[i]
	}
	if total == 0 {
		server.WriteError(w, r, http.StatusServiceUnavailable, server.CodeUnavailable,
			"no shard is reachable or populated")
		return
	}

	rows := make([]coordCampaignRow, len(co.spec))
	var wg sync.WaitGroup
	for i := range co.spec {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := coordCampaignRow{URL: co.spec[i]}
			defer func() { rows[i] = row }()
			if users[i] == 0 {
				row.Error = "no replica reachable or populated"
				co.met.FanoutErrs.Inc()
				return
			}
			sub := req
			sub.Budget = req.Budget * users[i] / total
			if sub.Budget < 1 {
				sub.Budget = 1
			}
			row.Budget = sub.Budget
			v, rep, err := co.rt.DoSequential(r.Context(), i, func(ctx context.Context, c *client.Client) (interface{}, error) {
				return c.CreateCampaign(ctx, sub)
			})
			if err != nil {
				row.Error = err.Error()
				co.met.FanoutErrs.Inc()
				return
			}
			c := v.(client.Campaign)
			row.ID, row.Replica = c.ID, rep.url
			if !c.Terminal() {
				// Pinned to the accepting replica: campaign IDs are
				// replica-local state.
				c, err = rep.c.WaitCampaign(r.Context(), c.ID, co.poll)
				co.reg.Observe(rep, err)
				if err != nil {
					row.State, row.Error = "running", err.Error()
					co.met.FanoutErrs.Inc()
					return
				}
			}
			row.State = c.State
			row.Accepted = len(c.Accepted)
			row.Declined = len(c.Declined)
			row.Dead = len(c.Dead)
			row.Coverage = c.Coverage
			co.met.Fanouts.Inc()
		}(i)
	}
	wg.Wait()

	agg := coordCampaignJSON{Budget: req.Budget, Shards: rows}
	for _, row := range rows {
		if row.Error != "" {
			agg.Degraded = true
			continue
		}
		agg.Accepted += row.Accepted
		agg.Declined += row.Declined
		agg.Dead += row.Dead
	}
	server.WriteJSON(w, r, http.StatusOK, agg)
}

// ShardURLs returns the configured shard replica-group specs, for logs and
// tests.
func (co *Coordinator) ShardURLs() []string {
	specs := make([]string, len(co.spec))
	copy(specs, co.spec)
	sort.Strings(specs)
	return specs
}
