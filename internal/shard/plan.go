package shard

import (
	"fmt"
	"sync"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
)

// Options configures a local sharding plan.
type Options struct {
	// Shards is the shard count S; 0 selects 1 (sharding disabled, the
	// merge round degenerates to exact greedy over round-1 winners).
	Shards int
	// Seed keys the consistent-hash ring. Every placement is a pure
	// function of (Shards, Seed, UserID), so two plans with equal values
	// shard identically.
	Seed uint64
}

// Shard is one partition of the population, indexed and selectable on its
// own: the local half of a shard server.
type Shard struct {
	ID int
	// Users maps local row → global user ID (ascending; row r of Repo is
	// global user Users[r]).
	Users []profile.UserID
	Repo  *profile.Repository
	Index *groups.Index
}

// Plan is a population partitioned into indexed shards plus the global index
// the merge round and the proof harness evaluate against.
type Plan struct {
	Part   *Partition
	Global *groups.Index
	Shards []*Shard
}

// NewPlan partitions the global index's population into opt.Shards shards
// and builds each shard's sub-repository and group index. Shard indexes are
// built with the global index's bucket boundaries pinned (Config.FixedBuckets),
// so a shard's groups are exact restrictions of the global groups — the
// alignment that makes round-1 shard scores commensurate with the global
// merge round. cfg should be the Config the global index was built with.
func NewPlan(global *groups.Index, cfg groups.Config, opt Options) (*Plan, error) {
	if opt.Shards == 0 {
		opt.Shards = 1
	}
	part, err := NewPartition(opt.Shards, opt.Seed)
	if err != nil {
		return nil, err
	}
	repo := global.Repo()
	labels, names, off, props, scores := repo.RawColumns()
	cfg.FixedBuckets = global.BucketBoundaries()
	assigned := part.Assign(repo.NumUsers())
	shards := make([]*Shard, opt.Shards)
	errs := make([]error, opt.Shards)
	var wg sync.WaitGroup
	for s := 0; s < opt.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sub, err := sliceRepo(labels, names, off, props, scores, assigned[s])
			if err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
				return
			}
			shards[s] = &Shard{
				ID:    s,
				Users: assigned[s],
				Repo:  sub,
				Index: groups.Build(sub, cfg),
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Plan{Part: part, Global: global, Shards: shards}, nil
}

// SelectResult is the outcome of a two-round sharded selection.
type SelectResult struct {
	// Merged is the second-round exact greedy over the candidate union,
	// evaluated on the global instance. Users are global IDs.
	Merged *core.Result
	// Winners[s] is shard s's round-1 selection in global IDs, in that
	// shard's pick order.
	Winners [][]profile.UserID
	// Candidates is the union the merge round selected from (winners
	// concatenated in shard order).
	Candidates []profile.UserID
}

// Select runs GreeDi two-round selection: round 1 greedily picks budget
// users on every shard (shards run concurrently across opt.Parallelism
// workers — the per-shard instance is the unit of parallelism here, not the
// per-pick argmax), round 2 runs exact greedy over the union of winners on
// the global instance. The result is deterministic for fixed (plan, schemes,
// budget): worker count never changes any pick.
func (p *Plan) Select(ws groups.WeightScheme, cs groups.CoverageScheme, budget int, opt core.Options) (*SelectResult, error) {
	return p.SelectRule(ws, cs, budget, nil, opt)
}

// SelectRule is Select under an explicit selection rule (nil selects the
// default coverage rule): both rounds — the per-shard greedy and the global
// merge — run the rule's credit schedule, so the GreeDi composition holds
// for the rule's own objective.
func (p *Plan) SelectRule(ws groups.WeightScheme, cs groups.CoverageScheme, budget int, rl *core.Rule, opt core.Options) (*SelectResult, error) {
	winners, err := p.roundOneRule(ws, cs, budget, rl, opt)
	if err != nil {
		return nil, err
	}
	res := &SelectResult{Winners: winners}
	for _, w := range winners {
		res.Candidates = append(res.Candidates, w...)
	}
	inst := groups.NewInstance(p.Global, ws, cs, budget)
	merged, err := core.MergeGreedyRule(inst, res.Candidates, budget, rl, opt)
	if err != nil {
		return nil, err
	}
	res.Merged = merged
	return res, nil
}

// Prove runs Select and the core proof harness on the same instance: the
// merged score against single-node exact greedy.
func (p *Plan) Prove(ws groups.WeightScheme, cs groups.CoverageScheme, budget int, opt core.Options) (*SelectResult, core.MergeProof, error) {
	winners, err := p.roundOneRule(ws, cs, budget, nil, opt)
	if err != nil {
		return nil, core.MergeProof{}, err
	}
	res := &SelectResult{Winners: winners}
	for _, w := range winners {
		res.Candidates = append(res.Candidates, w...)
	}
	inst := groups.NewInstance(p.Global, ws, cs, budget)
	merged, proof, err := core.ProveMerge(inst, res.Candidates, budget, opt)
	if err != nil {
		return nil, core.MergeProof{}, err
	}
	res.Merged = merged
	return res, proof, nil
}

// roundOneRule runs the per-shard greedy of size budget on every shard under
// rl's credit schedule, mapping winners back to global IDs. Shards execute
// across a worker pool sized by opt.Parallelism; each shard's greedy runs
// sequentially inside its worker (shard-level beats pick-level parallelism
// when S ≥ workers).
func (p *Plan) roundOneRule(ws groups.WeightScheme, cs groups.CoverageScheme, budget int, rl *core.Rule, opt core.Options) ([][]profile.UserID, error) {
	winners := make([][]profile.UserID, len(p.Shards))
	errs := make([]error, len(p.Shards))
	one := func(s int) {
		sh := p.Shards[s]
		if sh.Repo.NumUsers() == 0 {
			return
		}
		inst := groups.NewInstance(sh.Index, ws, cs, budget)
		// Timings deliberately stays unset: StageTimings is not safe for
		// concurrent runs, and round 1 is where shards overlap.
		res, err := core.GreedyRule(inst, budget, rl, core.Options{})
		if err != nil {
			errs[s] = fmt.Errorf("shard %d: %w", s, err)
			return
		}
		w := make([]profile.UserID, len(res.Users))
		for i, local := range res.Users {
			w[i] = sh.Users[local]
		}
		winners[s] = w
	}
	workers := opt.Parallelism
	if workers > len(p.Shards) {
		workers = len(p.Shards)
	}
	if workers <= 1 {
		for s := range p.Shards {
			one(s)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range work {
					one(s)
				}
			}()
		}
		for s := range p.Shards {
			work <- s
		}
		close(work)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return winners, nil
}
