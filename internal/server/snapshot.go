package server

import (
	"sync"
	"sync/atomic"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/profile"
)

// Snapshot is one immutable epoch of the served state: a sealed repository
// view, its group index with every derived structure (CSR, adjacency stats)
// pre-built, and per-epoch memoization of the diversification tables that
// the read path would otherwise recompute per request. Snapshots are
// published through the server's atomic pointer; once published, nothing in
// a snapshot is ever mutated, so any number of select, query, groups,
// distribution and status requests proceed lock-free against the epoch they
// loaded — a mutation batch being applied concurrently only ever touches the
// writer's private clone of the next epoch.
type Snapshot struct {
	epoch uint64
	repo  *profile.Repository
	index *groups.Index
	// changeSeq is the index's selection-relevance watermark at publication:
	// the sequence number of the last mutation batch that changed anything a
	// selection can observe. Epochs published by selection-irrelevant batches
	// (same-bucket score rewrites) carry the same changeSeq as their
	// predecessor, which is what lets the cross-epoch select cache serve
	// straight through them.
	changeSeq uint64

	// insts memoizes ComputeWeights/ComputeCoverage (and EBS ranks) per
	// (weights, coverage, budget): immutability makes the tables valid for
	// the snapshot's whole lifetime, so only the first request of each
	// combination pays the O(|𝒢|) construction. The budget is part of the
	// key only where the tables read it (EBS weights, Prop coverage), so
	// Iden and LBS under Single coverage share one instance at every budget.
	// Budgets come from clients and a snapshot on an image server or a shard
	// lives as long as the process, so at most maxBudgetInsts budget-keyed
	// instances are kept; budgeted counts them, and past the cap a request's
	// instance is built and not stored.
	insts    sync.Map // instKey → *groups.Instance
	budgeted atomic.Int32

	// topBySize memoizes the full size-descending group order behind
	// /api/v1/groups, an O(|𝒢| log |𝒢|) sort the pre-snapshot server paid per
	// request.
	topOnce   sync.Once
	topBySize []groups.GroupID
}

// instKey identifies one memoized diversification instance; budget is 0
// for the scheme pairs whose tables do not read it.
type instKey struct {
	ws     groups.WeightScheme
	cs     groups.CoverageScheme
	budget int
}

// maxBudgetInsts bounds the budget-keyed instances one snapshot memoizes.
const maxBudgetInsts = 16

// newSnapshot seals repo and freezes ix so every lazy structure is built
// before concurrent readers can reach them, then wraps both as epoch e.
func newSnapshot(e uint64, repo *profile.Repository, ix *groups.Index) *Snapshot {
	repo.Seal()
	ix.Freeze()
	return &Snapshot{epoch: e, repo: repo, index: ix, changeSeq: ix.ChangeSeq()}
}

// Epoch returns the snapshot's publication sequence number.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// ChangeSeq returns the selection-relevance watermark the snapshot was
// published at.
func (sn *Snapshot) ChangeSeq() uint64 { return sn.changeSeq }

// Repo returns the sealed repository view. Callers must not mutate it.
func (sn *Snapshot) Repo() *profile.Repository { return sn.repo }

// Index returns the frozen group index. Callers must not mutate it.
func (sn *Snapshot) Index() *groups.Index { return sn.index }

// Instance returns the diversification instance (𝒢, wei, cov) for the
// scheme pair and budget, memoized on first use (see insts). The returned
// instance is shared by concurrent requests; the selection core and the
// explanation builder treat instances as read-only.
func (sn *Snapshot) Instance(ws groups.WeightScheme, cs groups.CoverageScheme, budget int) *groups.Instance {
	byBudget := ws == groups.WeightEBS || cs == groups.CoverProp
	k := instKey{ws: ws, cs: cs}
	if byBudget {
		k.budget = budget
	}
	if v, ok := sn.insts.Load(k); ok {
		return v.(*groups.Instance)
	}
	inst := groups.NewInstance(sn.index, ws, cs, budget)
	// A budget-keyed instance reserves its slot before storing, so
	// concurrent misses never overfill the memo.
	if byBudget && sn.budgeted.Add(1) > maxBudgetInsts {
		sn.budgeted.Add(-1)
		return inst
	}
	v, loaded := sn.insts.LoadOrStore(k, inst)
	if loaded && byBudget {
		sn.budgeted.Add(-1)
	}
	return v.(*groups.Instance)
}

// buildSelect computes one select response from a request and memoizes
// nothing: the greedy core under rl (non-nil) on the epoch's instance —
// customized by fb when fb is non-nil — then the explanation report. Every
// select the cache does not answer from its entries or its selector states
// runs here: traced selects, every select while the cache is off, queries,
// and the cache's feedback misses and raced readers. sp (nil when untraced)
// gains the stage spans: one "select" child carrying the engine's stages for
// a feedback-free select, a "greedy" child carrying them and a "report"
// child for a feedback select. Errors come from feedback validation; the
// feedback-free path cannot fail once the handler has gated rule/instance
// compatibility.
func (sn *Snapshot) buildSelect(ws groups.WeightScheme, cs groups.CoverageScheme, budget, topK int, rl *core.Rule, fb *core.Feedback, opt core.Options, sp *obs.Span) (selectResponse, error) {
	inst := sn.Instance(ws, cs, budget)
	if fb == nil {
		gsp := sp.StartChild("select")
		var resp selectResponse
		res, err := core.GreedyRule(inst, budget, rl, opt)
		if err == nil {
			resp = buildSelectResponse(inst, res, nil, rl, topK)
		}
		gsp.End()
		attachStages(gsp, opt.Timings)
		return resp, err
	}
	gsp := sp.StartChild("greedy")
	custom, err := core.GreedyCustomOpts(inst, *fb, budget, opt)
	gsp.End()
	attachStages(gsp, opt.Timings)
	if err != nil {
		return selectResponse{}, err
	}
	rsp := sp.StartChild("report")
	resp := buildSelectResponse(inst, custom.Result, custom, rl, topK)
	rsp.End()
	return resp, nil
}

// TopKBySize returns the IDs of the k largest groups, memoizing the full
// sorted order on first use. Callers must not modify the returned slice.
func (sn *Snapshot) TopKBySize(k int) []groups.GroupID {
	sn.topOnce.Do(func() {
		sn.topBySize = sn.index.TopKBySize(sn.index.NumGroups())
	})
	if k > len(sn.topBySize) {
		k = len(sn.topBySize)
	}
	return sn.topBySize[:k]
}
