package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/profile"
)

// The watermark-keyed select cache, the server's only select-response cache.
// A live write stream publishes a new epoch per batch, so a cache held by
// one epoch would start cold at every batch. This cache spans epochs: it
// keys complete pre-marshaled responses on (schemes, budget, topK, response
// shape, feedback restriction) and serves them for as long as no
// selection-relevant write has landed, which the groups-layer change records
// decide (groups/delta.go). What it does not answer — traced selects, and
// every select while it is off — computes through Snapshot.buildSelect.
//
// Invalidation is computed once per batch, not per request: the single-writer
// apply loop calls applyDelta with the batch's change record before
// publishing the epoch; a non-empty record advances the global watermark,
// stamps the per-user watermark array (the last relevant mutation's sequence
// per user — O(Δ) writer work) and, when it reshaped the group structure,
// the reshape fence. The read path then decides hit-or-miss with one integer
// comparison: a cached entry computed at watermark W is valid for a snapshot
// whose ChangeSeq is still ≤ W. Batches
// whose mutations move no user between groups (same-bucket score rewrites)
// leave the watermark untouched, so the cache rides through them — the
// mesh exemplar's "serve until lastChangedAt passes the entry" shape, with
// the bucket partition deciding relevance.
//
// A feedback-free miss does not recompute from scratch. Per (weights,
// coverage, budget) the cache keeps a selState — a core.SelectorState plus
// the watermark it is synced to. The per-user watermark array replays exactly
// which rows changed in (state's seq, snapshot's seq], the state repairs
// those rows, and the selection re-runs seeded from the repaired base:
// O(Δ + n·k) instead of O(links + n·k), bit-identical to a fresh greedy by
// the SelectorState contract. A feedback miss skips the state: it runs the
// customized greedy on the snapshot's memoized instance, whose base row the
// tiered start row derives from (core.GreedyCustomOpts), so concurrent
// feedback misses never queue on one state's lock. The full response depends
// on every group's weight (the explanation report ranks all groups), so
// response validity is gated on the global watermark — exact, because
// irrelevant writes never advance it.
type selectCache struct {
	met *obs.SelectCacheMetrics

	// disabled flips the whole cache off (-select-cache=false): every select
	// then computes.
	disabled atomic.Bool
	// seq is the global watermark — the ChangeSeq of the last non-empty
	// batch. Written by the single writer, read lock-free per request.
	seq atomic.Uint64

	// mu guards the watermark array, the reshape fence, the entry and state
	// maps, and their recency lists.
	mu sync.Mutex
	// userSeq[u] is the last watermark that touched u; reshapeSeq the last
	// that reshaped the group structure.
	userSeq    []uint64
	reshapeSeq uint64
	entries    map[selCacheKey]*selCacheEntry
	states     map[selStateKey]*selState
	// ruleMet caches the per-rule request-counter children (hit/miss/bypass)
	// so the hot path never takes the registry lock.
	ruleMet sync.Map // rule name → *selCacheRuleMet
	// entryLRU / stateLRU order the map keys most- to least-recently used;
	// element values are the map keys so eviction can delete by key.
	entryLRU list.List
	stateLRU list.List

	// Aggregate counters behind SelectCacheStats (atomics: read
	// concurrently).
	hits, misses, bypass              atomic.Uint64
	entryEvicts, stateEvicts          atomic.Uint64
	repairs, recomputes, repairedRows atomic.Uint64
}

// maxSelCacheEntries bounds the response map. The map is keyed partly on
// client-supplied feedback, so without a bound it is a memory-growth vector;
// at capacity the least-recently-used entry is evicted (vars, not consts, so
// tests can shrink the caps).
var maxSelCacheEntries = 1024

// maxSelCacheStates bounds the per-(ws,cs,budget) selector states, which hold
// O(n) base arrays each — the expensive side of the cache.
var maxSelCacheStates = 64

// selCacheKey identifies one cached response: the selection parameters —
// including the selection rule, so two rules can never collide on one entry —
// the response shape (pretty and compact responses are distinct pre-marshaled
// bytes — satellite fix: ?pretty=1 must never be answered with compact bytes
// or vice versa), and the canonicalized feedback restriction ("" when
// feedback-free).
type selCacheKey struct {
	ws           groups.WeightScheme
	cs           groups.CoverageScheme
	budget, topK int
	// rule is the normalized rule name (core.Rule.Name — never "", the
	// handler resolves the empty request field to "coverage" before keying).
	rule   string
	pretty bool
	fb     string
}

// selStateKey identifies one delta-repaired selector state. Unlike instKey —
// instances are rule-independent — states embed a rule's base marginals, so
// one state serves exactly one rule.
type selStateKey struct {
	ws     groups.WeightScheme
	cs     groups.CoverageScheme
	budget int
	rule   string
}

// selCacheRuleMet holds one rule's request-outcome counter children.
type selCacheRuleMet struct {
	hits, misses, bypass *obs.Counter
}

// metFor returns (creating on first use) the counter children for a rule.
func (c *selectCache) metFor(rule string) *selCacheRuleMet {
	if v, ok := c.ruleMet.Load(rule); ok {
		return v.(*selCacheRuleMet)
	}
	m := &selCacheRuleMet{
		hits:   c.met.Requests("hit", rule),
		misses: c.met.Requests("miss", rule),
		bypass: c.met.Requests("bypass", rule),
	}
	v, _ := c.ruleMet.LoadOrStore(rule, m)
	return v.(*selCacheRuleMet)
}

type selCacheEntry struct {
	elem *list.Element // position in entryLRU; guarded by selectCache.mu

	mu    sync.Mutex
	valid bool
	seq   uint64 // watermark the response was computed at
	data  []byte // pre-marshaled (pretty or compact per key), newline-terminated
}

// selState pairs a delta-repaired selector state with the watermark and
// instance it is synced to.
type selState struct {
	elem *list.Element // position in stateLRU; guarded by selectCache.mu

	mu   sync.Mutex
	seq  uint64
	inst *groups.Instance
	st   *core.SelectorState
	// lastRows is st.RepairedUsers at the previous Sync, so the per-sync
	// increment can feed the metric counter.
	lastRows uint64
}

func newSelectCache(met *obs.SelectCacheMetrics) *selectCache {
	return &selectCache{
		met:     met,
		entries: make(map[selCacheKey]*selCacheEntry),
		states:  make(map[selStateKey]*selState),
	}
}

func (c *selectCache) enabled() bool { return !c.disabled.Load() }

// noteBypass records a request the handler routed around the cache (traced
// selections, which need a live span tree), attributed to its rule.
func (c *selectCache) noteBypass(rule string) {
	c.bypass.Add(1)
	c.metFor(rule).bypass.Inc()
}

// applyDelta folds one mutation batch's change record into the watermarks.
// Called by the single writer before the batch's snapshot is published, so by
// the time a reader can hold the new epoch the watermarks already cover it. An
// empty delta leaves every watermark untouched: cached entries stay valid
// across the epoch flip, which is the whole point.
func (c *selectCache) applyDelta(d *groups.Delta) {
	c.met.Watermark.Set(int64(d.Seq))
	if d.Empty() {
		return
	}
	c.mu.Lock()
	for _, u := range d.Users {
		for int(u) >= len(c.userSeq) {
			c.userSeq = append(c.userSeq, 0)
		}
		c.userSeq[u] = d.Seq
	}
	if d.Reshaped {
		c.reshapeSeq = d.Seq
	}
	c.mu.Unlock()
	c.seq.Store(d.Seq)
}

// changedSince collects the users touched in watermark range (lo, hi] and
// whether a reshape landed in it — the replay a selector state needs to catch
// up from lo to hi. O(n) scan under the lock; n bool-compares per miss is
// noise next to the selection itself.
func (c *selectCache) changedSince(lo, hi uint64) (users []profile.UserID, reshaped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for u, s := range c.userSeq {
		if s > lo && s <= hi {
			users = append(users, profile.UserID(u))
		}
	}
	reshaped = c.reshapeSeq > lo && c.reshapeSeq <= hi
	return users, reshaped
}

// entry returns the cached-response slot for k, evicting the least-recently-
// used entry when the map is at capacity. Eviction only unlinks the victim
// from the map: a request mid-single-flight on it still holds the pointer and
// completes against the detached entry, which the GC then collects.
func (c *selectCache) entry(k selCacheKey) *selCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.entryLRU.MoveToFront(e.elem)
		return e
	}
	for len(c.entries) >= maxSelCacheEntries {
		back := c.entryLRU.Back()
		delete(c.entries, back.Value.(selCacheKey))
		c.entryLRU.Remove(back)
		c.entryEvicts.Add(1)
		c.met.EntryEvictions.Inc()
	}
	e := &selCacheEntry{}
	e.elem = c.entryLRU.PushFront(k)
	c.entries[k] = e
	c.met.Entries.Set(int64(len(c.entries)))
	return e
}

// state returns the selector-state slot for k with the same LRU policy,
// creating a state that repairs base marginals under k's rule. An evicted
// state's O(n) base arrays stay reachable only from any in-flight compute
// still holding it.
func (c *selectCache) state(k selStateKey, r *core.Rule) *selState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.states[k]; ok {
		c.stateLRU.MoveToFront(st.elem)
		return st
	}
	for len(c.states) >= maxSelCacheStates {
		back := c.stateLRU.Back()
		delete(c.states, back.Value.(selStateKey))
		c.stateLRU.Remove(back)
		c.stateEvicts.Add(1)
		c.met.StateEvictions.Inc()
	}
	st := &selState{st: core.NewSelectorStateRule(r)}
	st.elem = c.stateLRU.PushFront(k)
	c.states[k] = st
	return st
}

// respond serves one select request through the cache: a single-flight hit
// check on the entry, and on miss a sync-repair-select-marshal under the
// entry's lock. r is the resolved selection rule (k.rule is its name); fb is
// nil for feedback-free requests (k.fb == "" then). The returned data is
// pre-marshaled per k.pretty and newline-terminated; the entry keeps only
// those bytes.
func (c *selectCache) respond(sn *Snapshot, k selCacheKey, r *core.Rule, fb *core.Feedback, opt core.Options) ([]byte, error) {
	target := sn.ChangeSeq()
	rm := c.metFor(k.rule)
	e := c.entry(k)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.valid && e.seq >= target {
		c.hits.Add(1)
		rm.hits.Inc()
		return e.data, nil
	}
	c.misses.Add(1)
	rm.misses.Inc()
	resp, err := c.compute(sn, k, r, fb, opt)
	if err != nil {
		return nil, err
	}
	data, err := marshalSelect(resp, k.pretty)
	if err != nil {
		return nil, err
	}
	e.data, e.seq, e.valid = data, target, true
	return data, nil
}

// compute produces the response for k against sn. A feedback-free select
// repairs (or recomputes) the per-parameter selector state first and runs
// seeded from it; a feedback select runs on the snapshot's instance alone.
// Errors come from feedback validation (the caller maps them to 400) — the
// feedback-free path cannot fail.
func (c *selectCache) compute(sn *Snapshot, k selCacheKey, r *core.Rule, fb *core.Feedback, opt core.Options) (selectResponse, error) {
	if fb != nil {
		// A feedback select reads only its instance, never the selector
		// state, so it neither syncs nor locks it: concurrent feedback
		// selects at one budget run side by side.
		return sn.buildSelect(k.ws, k.cs, k.budget, k.topK, r, fb, opt, nil)
	}
	target := sn.ChangeSeq()
	st := c.state(selStateKey{k.ws, k.cs, k.budget, k.rule}, r)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.inst == nil || st.seq < target {
		inst := sn.Instance(k.ws, k.cs, k.budget)
		var repaired bool
		if st.inst == nil {
			repaired = st.st.Sync(inst, nil, true)
		} else {
			users, reshaped := c.changedSince(st.seq, target)
			repaired = st.st.Sync(inst, users, reshaped)
		}
		if repaired {
			c.repairs.Add(1)
			c.met.Repaired.Inc()
		} else {
			c.recomputes.Add(1)
			c.met.Recomputed.Inc()
		}
		c.repairedRows.Add(st.st.RepairedUsers - st.lastRows)
		c.met.RepairedUsers.Add(st.st.RepairedUsers - st.lastRows)
		st.lastRows = st.st.RepairedUsers
		st.inst, st.seq = inst, target
	} else if st.seq > target {
		// A reader raced an in-flight batch and holds the previous epoch
		// while the state already advanced; states never rewind, so compute
		// against the reader's snapshot without touching the state.
		return sn.buildSelect(k.ws, k.cs, k.budget, k.topK, r, nil, opt, nil)
	}
	return buildSelectResponse(st.inst, st.st.Select(st.inst, k.budget, opt), nil, r, k.topK), nil
}

// marshalSelect pre-marshals a response in the shape its cache key names:
// exactly the bytes writeJSON would have produced for the same request.
func marshalSelect(resp selectResponse, pretty bool) ([]byte, error) {
	var data []byte
	var err error
	if pretty {
		data, err = json.MarshalIndent(resp, "", "  ")
	} else {
		data, err = json.Marshal(resp)
	}
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// feedbackCacheKey canonicalizes a request's feedback into a cache-key
// component. Order is preserved (reordered feedback is a different key, never
// a wrong answer — both entries compute correctly).
func feedbackCacheKey(f FeedbackJSON) string {
	return fmt.Sprintf("%v|%v|%v|%v|%t", f.MustHave, f.MustNot, f.Priority, f.Standard, f.StandardExplicit)
}

// SelectCacheStats is a point-in-time read of the cache counters, for tests
// and diagnostics; /api/v1/metrics exports the same outcomes per rule.
type SelectCacheStats struct {
	Hits, Misses, Bypass        uint64
	EntryEvictions, StateEvicts uint64
	Repairs, Recomputes         uint64
	RepairedRows                uint64
	Entries                     int
}

// SelectCacheStats returns the select cache's counters.
func (s *Server) SelectCacheStats() SelectCacheStats {
	c := s.selCache
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return SelectCacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Bypass:         c.bypass.Load(),
		EntryEvictions: c.entryEvicts.Load(),
		StateEvicts:    c.stateEvicts.Load(),
		Repairs:        c.repairs.Load(),
		Recomputes:     c.recomputes.Load(),
		RepairedRows:   c.repairedRows.Load(),
		Entries:        entries,
	}
}

// SetSelectCacheEnabled toggles the watermark-keyed select cache (default
// on). Off, every select computes through Snapshot.buildSelect and nothing
// is kept: the uncached reference that cached bytes are checked against.
func (s *Server) SetSelectCacheEnabled(v bool) { s.selCache.disabled.Store(!v) }
