package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"podium/internal/client"
	"podium/internal/codec"
	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/server"
	"podium/internal/shard"
	"podium/internal/stats"
)

// Replay sizes: how many selects, legs and write batches the traced replay
// re-runs per path. Each path runs on every workload so every layer time is
// measured on every run; the workload decides, through calls per select,
// which layers count towards its end-to-end latency.
const (
	replaySelects = 32
	replayFanouts = 30
	replayBatches = 16
	hitRepeats    = 60
)

// reconcileTolerance bounds |explained − measured| / measured, where
// measured is the part of the HTTP run's mean select latency above the
// hit floor and explained is what the per-layer times rebuild of it. The
// errors seen on the reference host stay within 0.21 (README.md); dropping
// a layer that carries more than 0.3 of the explained time fails the check.
const reconcileTolerance = 0.3

// missLatency separates live's cache misses from its hits in the HTTP run:
// a hit takes under a millisecond, a miss over a hundred.
const missLatency = 0.02

// probe holds what the traced run measures over HTTP while the workload's
// servers are still up: the cache-hit floor and the shard legs.
type probe struct {
	legBytes []float64
	legs     int
	legsFail int
}

// probeHTTP measures the hit floor and replays fanned-out legs. On cluster
// the legs go to the shard servers; elsewhere all legs go to the single
// server, so the client layer is timed on every workload.
func probeHTTP(o *options, d *deployment, c *http.Client, tr *tracer, hitBody []byte) (*probe, error) {
	pr := &probe{}
	hitURL := d.front
	if o.workload == "cluster" {
		// The coordinator merges on every request; the floor is a cache hit
		// of the same size on a shard.
		hitURL = d.shards[0]
	}
	var buf bytes.Buffer
	if _, err := post(c, hitURL+"/api/v1/select", hitBody, &buf); err != nil {
		return nil, err
	}
	for i := 0; i < hitRepeats; i++ {
		id := tr.begin("http.hit", -1)
		_, err := post(c, hitURL+"/api/v1/select", hitBody, &buf)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	targets := d.shards
	for len(targets) < shardCount {
		targets = append(targets, d.front)
	}
	legs := make([]*client.Client, len(targets))
	for i, u := range targets {
		legs[i] = client.New(u, c)
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + 17))
	for _, cm := range clusterMix {
		req := mustJSON(client.SelectRequest{Budget: cm.Budget, Rule: cm.Rule, TopK: 1})
		for _, u := range targets {
			if _, err := post(c, u+"/api/v1/select", req, &buf); err != nil {
				return nil, err
			}
			pr.legBytes = append(pr.legBytes, float64(buf.Len()))
		}
	}
	reqs := make([]client.SelectRequest, replayFanouts)
	for i := range reqs {
		cm := clusterMix[rng.Intn(len(clusterMix))]
		reqs[i] = client.SelectRequest{Budget: cm.Budget, Rule: cm.Rule, TopK: 1}
	}
	// As many fanned-out selects in flight as the workload has clients.
	var mu sync.Mutex
	concurrently(o.selectors, len(reqs), func(i int) {
		fan := tr.begin("shard.fanout", -1)
		var wg sync.WaitGroup
		for _, lc := range legs {
			wg.Add(1)
			go func(lc *client.Client) {
				defer wg.Done()
				id := tr.begin("client.leg", fan)
				_, err := lc.SelectCtx(context.Background(), reqs[i])
				tr.end(id)
				mu.Lock()
				pr.legs++
				if err != nil {
					pr.legsFail++
				}
				mu.Unlock()
			}(lc)
		}
		wg.Wait()
		tr.end(fan)
	})
	return pr, nil
}

// concurrently runs f(0), …, f(n−1) on k goroutines, goroutine g taking
// the indices congruent to g mod k, as k closed-loop clients would.
func concurrently(k, n int, f func(i int)) {
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += k {
				f(i)
			}
		}(g)
	}
	wg.Wait()
}

// replayer re-runs the workload's request stream in process, calling each
// layer's public function under a span.
type replayer struct {
	o  *options
	tr *tracer
	sn *server.Snapshot

	// mu guards the fields below it that concurrent replays append to.
	mu            sync.Mutex
	stages        core.StageTimings
	responseBytes []float64
	candidates    []float64
	syncs         core.SelectorState
	allocBytes    float64
	// gcCPU is GC CPU time over the live replay; allCPU the CPU time
	// available in that window (wall × GOMAXPROCS).
	gcCPU, allCPU float64
	batches       int
	renderSkips   int
}

// setupLayers times the start-up layers once each.
func (r *replayer) setupLayers(ds *dataset) (*profile.Repository, *shard.Plan, error) {
	tr := r.tr
	var repo *profile.Repository
	var err error
	tr.do("codec.image_load", -1, func(int) { repo, err = codec.ReadImageFile(ds.Image) })
	if err != nil {
		return nil, nil, err
	}
	logCopy := filepath.Join(r.o.work, "run", r.o.workload, "replay-open.plog")
	if err := copyFile(logCopy, ds.Log); err != nil {
		return nil, nil, err
	}
	var l *repolog.Log
	tr.do("repolog.replay", -1, func(int) { l, err = repolog.Open(logCopy) })
	if err != nil {
		return nil, nil, err
	}
	l.Close()
	os.Remove(logCopy)
	var ix *groups.Index
	tr.do("groups.build", -1, func(int) {
		ix = groups.Build(repo, groupCfg)
		ix.Freeze()
	})
	tr.do("shard.carve", -1, func(int) { _, _, err = shard.Carve(repo, groupCfg, shardCount, 0, 0) })
	if err != nil {
		return nil, nil, err
	}
	var plan *shard.Plan
	tr.do("shard.plan", -1, func(int) { plan, err = shard.NewPlan(ix, groupCfg, shard.Options{Shards: shardCount}) })
	return repo, plan, err
}

// render times RenderSelection and, separately, the report it builds, so
// the marshal share is render − report.
func (r *replayer) render(parent int, inst *groups.Instance, budget int, rl *core.Rule, res *core.Result, extra map[string]interface{}) error {
	tr := r.tr
	tr.do("explain.report", parent, func(int) { explain.NewReport(inst, res, 200) })
	var data []byte
	var err error
	tr.do("server.render", parent, func(int) {
		data, err = r.sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, budget, 200, rl, res, nil)
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.responseBytes = append(r.responseBytes, float64(len(data)))
	r.mu.Unlock()
	if extra != nil {
		tr.do("server.render_extra", parent, func(int) {
			_, err = r.sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, budget, 200, rl, res, extra)
		})
	}
	return err
}

// refinePath replays the first refine requests of each client's session,
// the clients concurrently as in the HTTP run: the restricted eager engine,
// then report and marshal.
func (r *replayer) refinePath() error {
	k := r.o.selectors
	sessions := make([][]refineOp, k)
	for c := range sessions {
		sessions[c] = refineSession(r.sn.Index(), r.o.seed, c, replaySelects/k)
	}
	errs := make([]error, replaySelects)
	concurrently(k, replaySelects/k*k, func(i int) {
		op := sessions[i%k][i/k]
		inst := r.sn.Instance(groups.WeightLBS, groups.CoverSingle, op.Budget)
		var res *core.CustomResult
		var st core.StageTimings
		sel := r.tr.begin("select", -1)
		r.tr.do("core.custom", sel, func(int) {
			res, errs[i] = core.GreedyCustomOpts(inst, feedbackOf(op.Feedback), op.Budget, core.Options{Timings: &st})
		})
		if errs[i] == nil {
			errs[i] = r.render(sel, inst, op.Budget, nil, res.Result, nil)
		}
		r.tr.end(sel)
		r.mu.Lock()
		r.stages.Runs += st.Runs
		r.stages.Picks += st.Picks
		r.stages.InitNs += st.InitNs
		r.stages.ArgmaxNs += st.ArgmaxNs
		r.stages.RetractNs += st.RetractNs
		r.mu.Unlock()
	})
	return errors.Join(errs...)
}

// mergePath replays the coordinator's side of cluster selects: the per-rule
// GreeDi merge over the shards' winners, report, marshal and the render
// with the coordinator's extra fields.
func (r *replayer) mergePath(plan *shard.Plan) error {
	cands := make([][]profile.UserID, len(clusterMix))
	rules := make([]*core.Rule, len(clusterMix))
	for i, cm := range clusterMix {
		rl, err := core.LookupRule(cm.Rule)
		if err != nil {
			return err
		}
		res, err := plan.SelectRule(groups.WeightLBS, groups.CoverSingle, cm.Budget, rl, core.Options{})
		if err != nil {
			return err
		}
		cands[i], rules[i] = res.Candidates, rl
	}
	extra := map[string]interface{}{"degraded": false, "shards": make([]client.ShardReport, shardCount)}
	errs := make([]error, replaySelects)
	// The workload's clients concurrently; round-robin over the mix keeps
	// every rule's merge timed on every run.
	concurrently(r.o.selectors, replaySelects, func(i int) {
		k := i % len(clusterMix)
		cm := clusterMix[k]
		inst := r.sn.Instance(groups.WeightLBS, groups.CoverSingle, cm.Budget)
		var res *core.Result
		sel := r.tr.begin("select", -1)
		r.tr.do("core.merge."+cm.Rule, sel, func(int) {
			res, errs[i] = core.MergeGreedyRule(inst, cands[k], cm.Budget, rules[k], core.Options{})
		})
		r.mu.Lock()
		r.candidates = append(r.candidates, float64(len(cands[k])))
		r.mu.Unlock()
		if errs[i] == nil {
			errs[i] = r.render(sel, inst, cm.Budget, rules[k], res, extra)
		}
		r.tr.end(sel)
	})
	return errors.Join(errs...)
}

// liveState is the writer's view of a mutable repository: the published
// repository and index, and the log they are durable in.
type liveState struct {
	log  *repolog.Log
	repo *profile.Repository
	ix   *groups.Index
}

// openLive opens a private copy of the prepared log and builds the index as
// a mutable podium-server does at start-up.
func openLive(o *options, name string) (*liveState, error) {
	path := filepath.Join(o.work, "run", o.workload, name)
	os.Remove(path + ".buckets")
	if err := copyFile(path, o.ds.Log); err != nil {
		return nil, err
	}
	l, err := repolog.Open(path)
	if err != nil {
		return nil, err
	}
	repo := l.Repository()
	ix := groups.Build(repo, groupCfg)
	repo.Seal()
	ix.Freeze()
	return &liveState{log: l, repo: repo, ix: ix}, nil
}

// apply applies one mutation the way the server's writer does: stage the
// log records, mutate the private repository, maintain the index.
func (s *liveState) apply(repo *profile.Repository, ix *groups.Index, w writeOp) error {
	if w.user < 0 {
		if err := s.log.AppendAddUser(w.name); err != nil {
			return err
		}
		u := repo.AddUser(w.name)
		labels := make([]string, 0, len(w.props))
		for l := range w.props {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			if err := s.log.AppendSetScore(u, l, w.props[l]); err != nil {
				return err
			}
			if err := repo.SetScore(u, l, w.props[l]); err != nil {
				return err
			}
		}
		unbucketed, err := ix.IndexUser(u)
		if err != nil {
			return err
		}
		for _, p := range unbucketed {
			if err := ix.BucketProperty(p, groupCfg); err != nil {
				return err
			}
		}
		return nil
	}
	u := profile.UserID(w.user)
	pid, known := repo.Catalog().Lookup(w.label)
	if err := s.log.AppendSetScore(u, w.label, w.score); err != nil {
		return err
	}
	if err := repo.SetScore(u, w.label, w.score); err != nil {
		return err
	}
	if !known {
		np, _ := repo.Catalog().Lookup(w.label)
		return ix.BucketProperty(np, groupCfg)
	}
	return ix.UpdateScore(u, pid)
}

// livePath replays the live write stream batch by batch (one mutation per
// batch, as one write connection produces) through the writer's pipeline,
// and after every selection-relevant batch the select cache's miss path:
// instance, selector-state repair, seeded lazy select, report, marshal.
func (r *replayer) livePath(name string) error {
	s, err := openLive(r.o, name)
	if err != nil {
		return err
	}
	defer s.log.Close()
	writes := liveWrites(s.ix, r.o.seed, replayBatches)
	st := core.NewSelectorState()
	st.Sync(groups.NewInstance(s.ix, groups.WeightLBS, groups.CoverSingle, 8), nil, true)
	st.Recomputes = 0 // the start-up sync is set-up work, not a miss
	tr := r.tr
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	gc0, wall0 := samples[1].Value.Float64(), time.Now()
	for _, w := range writes {
		metrics.Read(samples)
		a0 := samples[0].Value.Uint64()
		var repo *profile.Repository
		var ix *groups.Index
		var d *groups.Delta
		b := tr.begin("batch", -1)
		tr.do("profile.clone", b, func(int) { repo = s.repo.Clone() })
		tr.do("groups.clone", b, func(int) { ix = s.ix.Clone(repo) })
		tr.do("groups.apply", b, func(int) { err = s.apply(repo, ix, w) })
		if err == nil {
			tr.do("repolog.sync", b, func(int) { err = s.log.Sync() })
		}
		tr.do("groups.take_delta", b, func(int) { d = ix.TakeDelta() })
		tr.do("groups.freeze", b, func(int) {
			repo.Seal()
			ix.Freeze()
		})
		tr.end(b)
		metrics.Read(samples)
		r.allocBytes += float64(samples[0].Value.Uint64() - a0)
		r.batches++
		if err != nil {
			return fmt.Errorf("replaying write %s: %w", w.path, err)
		}
		s.repo, s.ix = repo, ix
		if d.Empty() {
			continue
		}
		sel := tr.begin("select", -1)
		var inst *groups.Instance
		var res *core.Result
		tr.do("groups.instance", sel, func(int) { inst = groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, 8) })
		tr.do("core.sync", sel, func(int) { st.Sync(inst, d.Users, d.Reshaped) })
		tr.do("core.select_seeded", sel, func(int) { res = st.Select(inst, 8, core.Options{}) })
		if fits(res.Users, r.sn.Repo().NumUsers()) {
			err = r.render(sel, inst, 8, nil, res, nil)
		} else {
			// A freshly signed-up user won the panel; the serving snapshot
			// used for rendering does not hold it.
			r.renderSkips++
		}
		tr.end(sel)
		if err != nil {
			return err
		}
	}
	runtime.GC()
	metrics.Read(samples)
	r.gcCPU += samples[1].Value.Float64() - gc0
	r.allCPU += time.Since(wall0).Seconds() * float64(runtime.GOMAXPROCS(0))
	r.syncs.Repairs += st.Repairs
	r.syncs.Recomputes += st.Recomputes
	r.syncs.RepairedUsers += st.RepairedUsers
	return nil
}

func fits(users []profile.UserID, n int) bool {
	for _, u := range users {
		if int(u) >= n {
			return false
		}
	}
	return true
}

// replayOwn runs the workload's own select path once; it is what the span
// overhead is measured on.
func (r *replayer) replayOwn(plan *shard.Plan, pass int) error {
	switch r.o.workload {
	case "refine":
		return r.refinePath()
	case "live":
		return r.livePath(fmt.Sprintf("replay-%d.plog", pass))
	default:
		return r.mergePath(plan)
	}
}

// traceRun is the traced replay of one workload after its HTTP run.
// httpCal is the calibration time around the HTTP run; the replay times its
// own, so the reconciliation compares the two at one host speed.
func traceRun(o *options, hr *httpRun, pr *probe, tr *tracer, cal *calibration, httpCal float64) (*metricSet, bool, []string, error) {
	r := &replayer{o: o, tr: tr}
	repo, plan, err := r.setupLayers(o.ds)
	if err != nil {
		return nil, false, nil, err
	}
	r.sn = server.New("replay", repo, groupCfg, nil).Snapshot()
	replayCal := cal.measure()
	// Every path runs under spans; the workload's own path runs again
	// untraced and traced, timed whole, for the span overhead.
	if err := r.refinePath(); err != nil {
		return nil, false, nil, err
	}
	if err := r.mergePath(plan); err != nil {
		return nil, false, nil, err
	}
	if err := r.livePath("replay-0.plog"); err != nil {
		return nil, false, nil, err
	}
	replayCal = (replayCal + cal.measure()) / 2
	traced := r.tr
	r.tr = newTracer(false)
	t0 := time.Now()
	if err := r.replayOwn(plan, 1); err != nil {
		return nil, false, nil, err
	}
	off := time.Since(t0)
	r.tr = newTracer(true)
	t0 = time.Now()
	if err := r.replayOwn(plan, 2); err != nil {
		return nil, false, nil, err
	}
	on := time.Since(t0)
	overheadSpans := len(r.tr.spans)
	r.tr = traced
	return r.layerMetrics(hr, pr, on, off, overheadSpans, httpCal/replayCal)
}

// layerMetrics turns the spans into the per-layer metrics and runs the
// reconciliation check.
// speed converts replay timings to the HTTP run's host speed.
func (r *replayer) layerMetrics(hr *httpRun, pr *probe, on, off time.Duration, overheadSpans int, speed float64) (*metricSet, bool, []string, error) {
	L := r.tr.layers()
	ms := newMetrics()
	get := func(name string) *layerTime {
		if l := L[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	us := func(x float64) float64 { return x * 1e6 }
	wl := r.o.workload

	// Calls per set-up, per select or per batch, by workload.
	hits := scrape(hr.metricsText, "podium_select_cache_requests_total", `result="hit"`)
	misses := scrape(hr.metricsText, "podium_select_cache_requests_total", `result="miss"`)
	missFrac := 0.0
	if hits+misses > 0 {
		missFrac = misses / (hits + misses)
	}
	is := func(w string) float64 {
		if wl == w {
			return 1
		}
		return 0
	}
	setupCalls := map[string]float64{
		"codec.image_load": is("refine") + is("cluster")*(shardCount+1),
		"repolog.replay":   is("live"),
		"groups.build":     1 + is("cluster")*2*shardCount,
		"shard.carve":      is("cluster") * shardCount,
		"shard.plan":       0,
	}
	for _, n := range []string{"codec.image_load", "repolog.replay", "groups.build", "shard.plan", "shard.carve"} {
		l := get(n)
		ms.set(n+"_s", "s", l.meanSelf(), l.calls)
		ms.set(n+".calls", "calls/setup", setupCalls[n], 1)
	}

	hit := get("http.hit").meanSelf()
	ms.set("http.hit_us", "us", us(hit), get("http.hit").calls)
	custom := get("core.custom")
	ms.set("core.custom_us", "us", us(custom.meanSelf()), custom.calls)
	ms.set("core.custom.calls", "calls/select", is("refine"), 1)
	runs := math.Max(float64(r.stages.Runs), 1)
	ms.set("core.greedy.init_us", "us", float64(r.stages.InitNs)/runs/1e3, r.stages.Runs)
	ms.set("core.greedy.argmax_us", "us", float64(r.stages.ArgmaxNs)/runs/1e3, r.stages.Runs)
	ms.set("core.greedy.retract_us", "us", float64(r.stages.RetractNs)/runs/1e3, r.stages.Runs)
	ms.set("core.greedy.picks", "count", float64(r.stages.Picks)/runs, r.stages.Runs)
	inst, syn, seeded := get("groups.instance"), get("core.sync"), get("core.select_seeded")
	ms.set("groups.instance_us", "us", us(inst.meanSelf()), inst.calls)
	ms.set("core.sync_us", "us", us(syn.meanSelf()), syn.calls)
	ms.set("core.select_seeded_us", "us", us(seeded.meanSelf()), seeded.calls)
	ms.set("core.sync.calls", "calls/select", is("live")*missFrac, int(hits+misses))
	syncs := math.Max(float64(r.syncs.Repairs+r.syncs.Recomputes), 1)
	ms.set("core.sync.repaired_rows", "count", float64(r.syncs.RepairedUsers)/syncs, int(syncs))
	ms.set("core.sync.recompute_frac", "ratio", float64(r.syncs.Recomputes)/syncs, int(syncs))
	var mergeSum float64
	for _, cm := range clusterMix {
		l := get("core.merge." + cm.Rule)
		ms.set("core.merge."+cm.Rule+"_us", "us", us(l.meanSelf()), l.calls)
		mergeSum += l.meanSelf()
	}
	ms.set("core.merge.calls", "calls/select", is("cluster"), 1)
	ms.set("shard.candidates", "count", stats.Mean(r.candidates), len(r.candidates))

	report, render := get("explain.report"), get("server.render")
	marshal := render.meanSelf() - report.meanSelf()
	extra := get("server.render_extra").meanSelf() - render.meanSelf()
	respCalls := map[string]float64{"refine": 1, "live": missFrac, "cluster": 1}[wl]
	ms.set("explain.report_us", "us", us(report.meanSelf()), report.calls)
	ms.set("explain.report.calls", "calls/select", respCalls, 1)
	ms.set("server.marshal_us", "us", us(marshal), render.calls)
	ms.set("server.marshal.calls", "calls/select", respCalls, 1)
	ms.set("server.response_bytes", "bytes", stats.Mean(r.responseBytes), len(r.responseBytes))
	ms.set("server.render_extra_us", "us", us(extra), get("server.render_extra").calls)
	ms.set("server.render_extra.calls", "calls/select", is("cluster"), 1)
	ms.set("server.cache.hit_frac", "ratio", func() float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}(), int(hits+misses))
	ms.set("server.cache.misses", "count", misses, int(hits+misses))

	legs := get("client.leg")
	legUs := make([]float64, len(legs.total))
	for i, v := range legs.total {
		legUs[i] = us(v)
	}
	p50, err := percentile(legUs, 0.5)
	if err != nil {
		return nil, false, nil, fmt.Errorf("client.leg_p50_us: %w", err)
	}
	p90, err := percentile(legUs, 0.9)
	if err != nil {
		return nil, false, nil, fmt.Errorf("client.leg_p90_us: %w", err)
	}
	fan := get("shard.fanout")
	ms.set("client.leg_p50_us", "us", p50, len(legUs))
	ms.set("client.leg_p90_us", "us", p90, len(legUs))
	ms.set("client.leg.calls", "calls/select", is("cluster")*shardCount, 1)
	ms.set("client.leg_bytes", "bytes", stats.Mean(pr.legBytes), len(pr.legBytes))
	ms.set("shard.fanout_us", "us", us(fan.meanTotal()), fan.calls)
	ms.set("shard.fanout.calls", "calls/select", is("cluster"), 1)
	ms.set("shard.legs_failed_frac", "ratio", float64(pr.legsFail)/float64(pr.legs), pr.legs)

	// The writer's per-batch pipeline.
	for _, n := range []string{"profile.clone", "groups.clone", "groups.apply", "repolog.sync", "groups.take_delta", "groups.freeze"} {
		l := get(n)
		ms.set(n+"_us", "us", us(l.meanSelf()), l.calls)
	}
	nBatches := scrape(hr.metricsText, "podium_apply_batch_size_count")
	ms.set("writer.batches_per_s", "1/s", nBatches/hr.elapsed.Seconds(), int(nBatches))
	ms.set("server.apply.mutations_per_batch", "count", scrape(hr.metricsText, "podium_apply_batch_size_sum")/math.Max(nBatches, 1), int(nBatches))
	ms.set("server.apply.shed", "count", scrape(hr.metricsText, "podium_http_requests_shed_total"), int(nBatches))
	ms.set("runtime.alloc_mb_per_batch", "MB", r.allocBytes/float64(r.batches)/(1<<20), r.batches)
	ms.set("runtime.gc_cpu_frac", "ratio", r.gcCPU/math.Max(r.allCPU, 1e-9), r.batches)

	// Reconciliation: rebuild, from the layer times and each layer's calls
	// per select, the part of the HTTP run's mean select latency above its
	// hit floor, at the HTTP run's host speed. The floor is what moving a cached response of the same size
	// costs: the http.hit probe on refine and cluster, and on live the run's
	// own hits, which are most of its selects.
	var lat []float64
	for _, s := range hr.sel {
		lat = append(lat, s.lat)
	}
	floor := hit
	var explained float64
	switch wl {
	case "refine":
		explained = custom.meanSelf() + report.meanSelf() + marshal
	case "live":
		var hitLat []float64
		for _, x := range lat {
			if x < missLatency {
				hitLat = append(hitLat, x)
			}
		}
		floor = stats.Mean(hitLat)
		explained = missFrac * (inst.meanSelf() + syn.meanSelf() + seeded.meanSelf() + report.meanSelf() + marshal)
	case "cluster":
		explained = fan.meanTotal() + mergeSum/float64(len(clusterMix)) + report.meanSelf() + marshal + extra
	}
	explained *= speed
	meas := stats.Mean(lat) - floor
	errFrac := (explained - meas) / meas
	ms.set("reconcile.predicted_ms", "ms", explained*1000, len(lat))
	ms.set("reconcile.measured_ms", "ms", meas*1000, len(lat))
	ms.set("reconcile.error_frac", "ratio", math.Abs(errFrac), len(lat))
	ms.set("trace.span_overhead_frac", "ratio", (on.Seconds()-off.Seconds())/off.Seconds(), overheadSpans)
	ms.set("trace.spans", "count", float64(len(r.tr.spans)), len(r.tr.spans))
	var errs []string
	ok := math.Abs(errFrac) <= reconcileTolerance
	if !ok {
		errs = append(errs, fmt.Sprintf("reconciliation: layers explain %.3f ms per select above the hit floor, the HTTP run measured %.3f ms (%+.0f%%, tolerance %.0f%%)",
			explained*1000, meas*1000, errFrac*100, reconcileTolerance*100))
	}
	if r.renderSkips > 0 {
		errs = append(errs, fmt.Sprintf("live replay: %d panels held new users and were not rendered", r.renderSkips))
	}
	return ms, ok, errs, nil
}
