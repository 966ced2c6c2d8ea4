package server

import (
	"encoding/json"
	"sync"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
)

// Snapshot is one immutable epoch of the served state: a sealed repository
// view, its group index with every derived structure (CSR, adjacency stats)
// pre-built, and per-epoch memoization of the diversification tables that
// the read path would otherwise recompute per request. Snapshots are
// published through the server's atomic pointer; once published, nothing in
// a snapshot is ever mutated, so any number of /api/select, /api/query,
// /api/groups, /api/distribution and /api/status requests proceed lock-free
// against the epoch they loaded — a mutation batch being applied
// concurrently only ever touches the writer's private clone of the next
// epoch.
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
	// combination pays the O(|𝒢|) construction.
	insts sync.Map // instKey → *groups.Instance

	// topBySize memoizes the full size-descending group order behind
	// /api/groups, an O(|𝒢| log |𝒢|) sort the pre-snapshot server paid per
	// request.
	topOnce   sync.Once
	topBySize []groups.GroupID

	// sels memoizes complete feedback-free selection responses. Greedy is
	// deterministic on an immutable snapshot, so the response for a given
	// (weights, coverage, budget, topK) is a pure function of the epoch:
	// only the first such request per epoch runs the selection and builds
	// (and marshals) the explanation report.
	sels sync.Map // selKey → *selEntry
}

// selKey identifies one memoized selection response. Parallelism is
// deliberately absent: it changes selection latency, never results. rule is
// the normalized rule name — distinct rules memoize distinct responses.
type selKey struct {
	ws           groups.WeightScheme
	cs           groups.CoverageScheme
	budget, topK int
	rule         string
}

type selEntry struct {
	once sync.Once
	resp selectResponse
	data []byte // compact JSON of resp, newline-terminated
	err  error
}

// instKey identifies one memoized diversification instance.
type instKey struct {
	ws     groups.WeightScheme
	cs     groups.CoverageScheme
	budget int
}

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

// Instance returns the memoized diversification instance (𝒢, wei, cov) for
// the scheme pair and budget, computing it on first use. The returned
// instance is shared by concurrent requests; the selection core and the
// explanation builder treat instances as read-only.
func (sn *Snapshot) Instance(ws groups.WeightScheme, cs groups.CoverageScheme, budget int) *groups.Instance {
	k := instKey{ws, cs, budget}
	if v, ok := sn.insts.Load(k); ok {
		return v.(*groups.Instance)
	}
	v, _ := sn.insts.LoadOrStore(k, groups.NewInstance(sn.index, ws, cs, budget))
	return v.(*groups.Instance)
}

// SelectResponse returns the memoized feedback-free selection response for
// the scheme pair, budget and report size, running the greedy core and the
// explanation builder only on the first request per combination. The opt
// passed by the winning caller steers that one computation's parallelism;
// losers share its (identical) result. data is the compact JSON encoding of
// resp, ready to write; err is the marshalling error, if any.
// rl selects the objective; the default rule's memoized responses are
// byte-identical to pre-rules servers (the rule field is omitted for the
// default).
func (sn *Snapshot) SelectResponse(ws groups.WeightScheme, cs groups.CoverageScheme, budget, topK int, rl *core.Rule, opt core.Options) (resp selectResponse, data []byte, err error) {
	rl = rl.OrDefault()
	k := selKey{ws, cs, budget, topK, rl.Name()}
	v, _ := sn.sels.LoadOrStore(k, &selEntry{})
	e := v.(*selEntry)
	e.once.Do(func() {
		if e.resp, e.err = sn.buildSelect(ws, cs, budget, topK, rl, opt); e.err != nil {
			return
		}
		e.data, e.err = json.Marshal(e.resp)
		if e.err == nil {
			e.data = append(e.data, '\n')
		}
	})
	return e.resp, e.data, e.err
}

// buildSelect runs one feedback-free selection under rl (non-nil) and builds
// its response, memoizing nothing. SelectResponse memoizes its result;
// traced selects call it directly, so their span tree shows the engine's
// stages and they leave the memo alone.
func (sn *Snapshot) buildSelect(ws groups.WeightScheme, cs groups.CoverageScheme, budget, topK int, rl *core.Rule, opt core.Options) (selectResponse, error) {
	inst := sn.Instance(ws, cs, budget)
	res, err := core.GreedyRule(inst, budget, rl, opt)
	if err != nil {
		return selectResponse{}, err
	}
	resp := buildSelectResponse(inst, res, nil, topK)
	if !rl.IsDefault() {
		resp.Rule = rl.Name()
	}
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
