package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/shard"
)

// refineTopGroups is how many of the largest groups refine's feedback sets
// draw from.
const refineTopGroups = 48

// refineOp is one refinement request: a budget and a Definition 6.1
// feedback set.
type refineOp struct {
	Budget   int                 `json:"budget"`
	Feedback server.FeedbackJSON `json:"feedback"`
}

// refineSession draws one analyst's n distinct refinement requests from the
// seed: 1–3 priority groups, 0–2 must_not groups and, on one request in
// four, a must_have group, all among the largest groups. Session c asks for
// budget 8 when c is even and 16 when odd, so two concurrent sessions never
// share the select cache's per-budget selector state. Every request is a new
// select-cache key.
func refineSession(ix *groups.Index, seed int64, c, n int) []refineOp {
	top := ix.TopKBySize(refineTopGroups)
	rng := rand.New(rand.NewSource(seed*31 + int64(c)))
	seen := map[string]bool{}
	var ops []refineOp
	for len(ops) < n {
		perm := rng.Perm(len(top))
		pick := func(k int) []int {
			ids := make([]int, k)
			for i := range ids {
				ids[i] = int(top[perm[0]])
				perm = perm[1:]
			}
			return ids
		}
		op := refineOp{Budget: 8 << (c % 2)}
		op.Feedback.Priority = pick(1 + rng.Intn(3))
		if k := rng.Intn(3); k > 0 {
			op.Feedback.MustNot = pick(k)
		}
		if rng.Intn(4) == 0 {
			op.Feedback.MustHave = pick(1)
		}
		key := fmt.Sprint(op)
		if seen[key] {
			continue
		}
		seen[key] = true
		ops = append(ops, op)
	}
	return ops
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// clusterCombo is one rule/budget pair of the cluster mix.
type clusterCombo struct {
	Rule   string `json:"rule"`
	Budget int    `json:"budget"`
}

// clusterMix is the cluster workload's rule and budget mix. fairness-floor
// and maxcov run at budget 16: at budget 8 the two pick identical panels on
// this dataset.
var clusterMix = []clusterCombo{{"coverage", 8}, {"harmonic", 8}, {"fairness-floor", 16}, {"maxcov", 16}}

func (c clusterCombo) key() string { return fmt.Sprintf("%s/%d", c.Rule, c.Budget) }

// streams splits a workload's select stream across the closed-loop clients.
func streams(clients int, gen func(client, i int) selectOp, perClient int) [][]selectOp {
	out := make([][]selectOp, clients)
	for c := range out {
		out[c] = make([]selectOp, perClient)
		for i := range out[c] {
			out[c][i] = gen(c, i)
		}
	}
	return out
}

// httpRun is the outcome of a workload's measured HTTP phase.
type httpRun struct {
	sel       []sample // successful selects in completion order
	selFailed int
	// calPoints are the calibrations taken during the measured window.
	calPoints  []calPoint
	mismatches int
	elapsed    time.Duration
	errs       []string

	writeLat    []float64 // seconds from due to ack
	writeLag    []float64 // seconds from due to send
	writeFailed int

	metricsText string
	// rssEndMB is the servers' summed peak RSS after the measured window.
	rssEndMB float64
	checked  int
}

func (r *httpRun) selAttempted() int { return len(r.sel) + r.selFailed }

// answer is the part of a select response the output checks compare.
type answer struct {
	Users []struct {
		ID int `json:"id"`
	} `json:"users"`
}

func panelOf(body []byte) ([]profile.UserID, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, err
	}
	out := make([]profile.UserID, len(a.Users))
	for i, u := range a.Users {
		out[i] = profile.UserID(u.ID)
	}
	return out, nil
}

func samePanel(a, b []profile.UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refineCheckPerClient is how many of each client's first selects the refine
// output check recomputes with core.ReferenceGreedy.
const refineCheckPerClient = 3

// runRefine drives the refine workload: closed-loop clients each sending
// their own stream of distinct refinement requests.
func runRefine(o *options, d *deployment, c *http.Client, ix *groups.Index, after afterWindow) (*httpRun, error) {
	const perClient = 4000
	sessions := make([][]refineOp, o.selectors)
	for cl := range sessions {
		sessions[cl] = refineSession(ix, o.seed, cl, perClient)
	}
	byKey := map[string]refineOp{}
	st := streams(o.selectors, func(cl, i int) selectOp {
		op := sessions[cl][i]
		body := mustJSON(op)
		byKey[string(body)] = op
		return selectOp{key: string(body), body: body}
	}, perClient)
	url := d.front + "/api/v1/select"
	// Warm-up: one request per budget outside the measured stream.
	var buf bytes.Buffer
	for _, b := range []int{8, 16} {
		if _, err := post(c, url, mustJSON(refineOp{Budget: b, Feedback: server.FeedbackJSON{Priority: []int{int(ix.TopKBySize(1)[0])}}}), &buf); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	recs, elapsed, points := runClients(c, url, st, time.Duration(o.seconds)*time.Second,
		func(i int, _ selectOp) bool { return i < refineCheckPerClient }, o.cal)
	run := &httpRun{elapsed: elapsed, calPoints: points}
	var kept map[string][]byte
	run.sel, run.selFailed, run.errs, kept, run.mismatches = mergeRecorders(recs)
	if err := run.finish(c, d, after, st[0][0].body); err != nil {
		return nil, err
	}
	// Output check: each sampled panel (users and order) equals the reference
	// greedy on the same refined, tiered instance.
	insts := map[int]*groups.Instance{}
	keys := make([]string, 0, len(kept))
	for k := range kept {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		op := byKey[k]
		got, err := panelOf(kept[k])
		if err != nil {
			return nil, err
		}
		base := insts[op.Budget]
		if base == nil {
			base = groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, op.Budget)
			insts[op.Budget] = base
		}
		fb := feedbackOf(op.Feedback)
		want := core.ReferenceGreedy(core.CustomInstance(base, fb), op.Budget, core.RefineUsers(ix, fb)).Users
		run.checked++
		if !samePanel(got, want) {
			run.mismatches++
			run.errs = append(run.errs, fmt.Sprintf("refine panel mismatch for %s: got %v want %v", k, got, want))
		}
	}
	return run, nil
}

func feedbackOf(f server.FeedbackJSON) core.Feedback {
	conv := func(ids []int) []groups.GroupID {
		out := make([]groups.GroupID, len(ids))
		for i, id := range ids {
			out[i] = groups.GroupID(id)
		}
		return out
	}
	return core.Feedback{MustHave: conv(f.MustHave), MustNot: conv(f.MustNot), Priority: conv(f.Priority)}
}

// runCluster drives the cluster workload: closed-loop clients sending the
// rule mix to the coordinator.
func runCluster(o *options, d *deployment, c *http.Client, after afterWindow) (*httpRun, error) {
	const perClient = 50000
	bodies := make([][]byte, len(clusterMix))
	for i, cm := range clusterMix {
		bodies[i] = mustJSON(cm)
	}
	// Each client walks the mix in seeded shuffled rounds, so every run
	// carries the four combinations in equal shares.
	rngs := make([]*rand.Rand, o.selectors)
	rounds := make([][]int, o.selectors)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(o.seed*7919 + int64(i)))
	}
	st := streams(o.selectors, func(cl, i int) selectOp {
		if i%len(clusterMix) == 0 {
			rounds[cl] = rngs[cl].Perm(len(clusterMix))
		}
		k := rounds[cl][i%len(clusterMix)]
		return selectOp{key: clusterMix[k].key(), body: bodies[k], group: clusterMix[k].key()}
	}, perClient)
	url := d.front + "/api/v1/select"
	// Warm-up: every combination once, so shard legs and the coordinator's
	// name table are past their first computation.
	var buf bytes.Buffer
	for _, b := range bodies {
		if _, err := post(c, url, b, &buf); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	recs, elapsed, points := runClients(c, url, st, time.Duration(o.seconds)*time.Second,
		func(int, selectOp) bool { return true }, o.cal)
	run := &httpRun{elapsed: elapsed, calPoints: points}
	var kept map[string][]byte
	run.sel, run.selFailed, run.errs, kept, run.mismatches = mergeRecorders(recs)
	if err := run.finish(c, d, after, []byte(`{"budget":8}`)); err != nil {
		return nil, err
	}
	d.stop()
	// Output check: each combination's panel equals in-process GreeDi
	// (shard.Plan.SelectRule) for the same rule and budget, and no two
	// combinations of the mix return the same panel.
	ix, err := o.ds.loadIndex()
	if err != nil {
		return nil, err
	}
	plan, err := shard.NewPlan(ix, groupCfg, shard.Options{Shards: shardCount})
	if err != nil {
		return nil, err
	}
	want := make([][]profile.UserID, len(clusterMix))
	for i, cm := range clusterMix {
		rl, err := core.LookupRule(cm.Rule)
		if err != nil {
			return nil, err
		}
		res, err := plan.SelectRule(groups.WeightLBS, groups.CoverSingle, cm.Budget, rl, core.Options{})
		if err != nil {
			return nil, err
		}
		want[i] = res.Merged.Users
		body, ok := kept[cm.key()]
		if !ok {
			run.mismatches++
			run.errs = append(run.errs, "no response kept for "+cm.key())
			continue
		}
		got, err := panelOf(body)
		if err != nil {
			return nil, err
		}
		run.checked++
		if !samePanel(got, want[i]) {
			// Every response of this combination carried these bytes.
			for _, r := range recs {
				for _, n := range r.sums[cm.key()] {
					run.mismatches += n
				}
			}
			run.errs = append(run.errs, fmt.Sprintf("cluster panel mismatch for %s: got %v want %v", cm.key(), got, want[i]))
		}
	}
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if samePanel(want[i], want[j]) {
				run.mismatches++
				run.errs = append(run.errs, fmt.Sprintf("rules %s and %s return the same panel", clusterMix[i].key(), clusterMix[j].key()))
			}
		}
	}
	return run, nil
}

// afterWindow runs after the measured window while the servers are still
// up; hitBody is a select the front server has already answered.
type afterWindow func(r *httpRun, d *deployment, hitBody []byte) error

// finish scrapes every server's metrics and peak RSS after the measured
// window, then runs after (when set). Counters are summed over servers, so
// on cluster the select cache's outcomes are the shard legs'.
func (r *httpRun) finish(c *http.Client, d *deployment, after afterWindow, hitBody []byte) error {
	for _, p := range d.procs {
		text, err := get(c, p.url+"/api/v1/metrics")
		if err != nil {
			return err
		}
		r.metricsText += string(text)
	}
	var err error
	if r.rssEndMB, err = d.peakRSSMB(); err != nil {
		return err
	}
	if after == nil {
		return nil
	}
	return after(r, d, hitBody)
}

// writeOp is one mutation of the live write stream: a sign-up (user < 0)
// or a score update.
type writeOp struct {
	path string
	body []byte

	name  string
	props map[string]float64
	user  int
	label string
	score float64
}

// liveWriteRate is the live workload's open-loop writes per second. Most
// writes move a user between groups and cost the next select a miss; at
// this rate the misses take about two fifths of the read connection's time
// while most selects still hit (see README.md).
const liveWriteRate = 3

// liveWrites draws n mutations from the seed: 15% sign-ups with four
// scored properties, 85% updates that set one of an existing user's scores
// to a random value.
func liveWrites(ix *groups.Index, seed int64, n int) []writeOp {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	repo := ix.Repo()
	labels, _, off, props, _ := repo.RawColumns()
	score := func() float64 { return float64(rng.Intn(1001)) / 1000 }
	ops := make([]writeOp, n)
	for i := range ops {
		if rng.Intn(100) < 15 {
			w := writeOp{path: "/api/v1/users", name: fmt.Sprintf("bench-%d-%d", seed, i), props: map[string]float64{}, user: -1}
			for len(w.props) < 4 {
				w.props[labels[rng.Intn(len(labels))]] = score()
			}
			w.body = mustJSON(map[string]any{"name": w.name, "properties": w.props})
			ops[i] = w
			continue
		}
		u := rng.Intn(repo.NumUsers())
		for off[u+1] == off[u] {
			u = rng.Intn(repo.NumUsers())
		}
		j := off[u] + rng.Intn(off[u+1]-off[u])
		w := writeOp{path: "/api/v1/scores", user: u, label: labels[props[j]], score: score()}
		w.body = mustJSON(map[string]any{"user": w.user, "label": w.label, "score": w.score})
		ops[i] = w
	}
	return ops
}

// runLive drives the live workload: one closed-loop connection of default
// budget-8 selects beside one open-loop write connection at liveWriteRate.
func runLive(o *options, d *deployment, c *http.Client, ix *groups.Index, after afterWindow) (*httpRun, error) {
	dur := time.Duration(o.seconds) * time.Second
	nWrites := int(liveWriteRate*dur.Seconds()) + 1
	writes := liveWrites(ix, o.seed, nWrites)
	sel := selectOp{body: []byte(`{"budget":8}`)}
	// Far more selects than one connection can complete: a hit moves a 1.1 MB
	// response, so 20,000 a second would be 22 GB/s over loopback.
	st := [][]selectOp{make([]selectOp, 20000*o.seconds)}
	for i := range st[0] {
		st[0][i] = sel
	}
	run := &httpRun{}
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		interval := time.Second / liveWriteRate
		for i, w := range writes {
			due := start.Add(time.Duration(i) * interval)
			if due.After(start.Add(dur)) {
				break
			}
			time.Sleep(time.Until(due))
			run.writeLag = append(run.writeLag, time.Since(due).Seconds())
			code, _, err := doRequest(c, http.MethodPost, d.front+w.path, w.body, &buf)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("POST %s: HTTP %d: %s", w.path, code, trimBody(buf.Bytes()))
			}
			if err != nil {
				run.writeFailed++
				run.writeLat = append(run.writeLat, failedLatency.Seconds())
				if len(run.errs) < 5 {
					run.errs = append(run.errs, err.Error())
				}
				continue
			}
			run.writeLat = append(run.writeLat, time.Since(due).Seconds())
		}
	}()
	// No pauses for calibration: the writer runs open loop.
	recs, elapsed, _ := runClients(c, d.front+"/api/v1/select", st, dur, func(int, selectOp) bool { return false }, nil)
	wg.Wait()
	run.elapsed = elapsed
	var errs []string
	run.sel, run.selFailed, errs, _, _ = mergeRecorders(recs)
	run.errs = append(run.errs, errs...)
	if err := run.finish(c, d, after, sel.body); err != nil {
		return nil, err
	}
	// Output check: with the write stream quiesced, the cached response bytes
	// equal those of a -select-cache=false server restarted on the same log.
	var buf bytes.Buffer
	url := d.front + "/api/v1/select"
	if _, err := post(c, url, sel.body, &buf); err != nil { // fills the cache
		return nil, err
	}
	if _, err := post(c, url, sel.body, &buf); err != nil { // served from it
		return nil, err
	}
	cached := append([]byte(nil), buf.Bytes()...)
	d.stop()
	if err := d.procs[0].cleanExit(); err != nil {
		return nil, err
	}
	c.CloseIdleConnections()
	fresh, err := restartUncached(o, d, c)
	if err != nil {
		return nil, err
	}
	run.checked++
	if !bytes.Equal(cached, fresh) {
		run.mismatches++
		run.errs = append(run.errs, fmt.Sprintf("live: cached response (%d bytes) differs from a -select-cache=false restart (%d bytes)", len(cached), len(fresh)))
	}
	return run, nil
}

// restartUncached starts a -select-cache=false server on the live run's log
// and returns its default select response.
func restartUncached(o *options, d *deployment, c *http.Client) ([]byte, error) {
	p, err := startServer(o.bin, "server-uncached", []string{"-log", d.dir + "/repo.plog", "-select-cache=false", "-addr", "127.0.0.1:0"}, listenTimeout)
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	if _, err := waitFirstSelect(c, p.url, time.Now().Add(listenTimeout)); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := post(c, p.url+"/api/v1/select", []byte(`{"budget":8}`), &buf); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}
