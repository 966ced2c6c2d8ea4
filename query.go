package podium

import (
	"fmt"

	"podium/internal/groups"
	"podium/internal/query"
)

// SelectQuery runs a selection described in Podium's declarative query
// language (see internal/query for the grammar):
//
//	SELECT 8 USERS
//	WEIGHTS LBS COVERAGE SINGLE
//	WHERE HAS "avgRating Mexican" AND "livesIn Tokyo" NOT IN true
//	DIVERSIFY BY "livesIn Tokyo", "livesIn Paris"
//	IGNORE "internal score"
//
// The selection runs the instance's configured rule (WithRule); a query with
// feedback clauses (WHERE, DIVERSIFY BY, IGNORE) is customization, which only
// the default coverage rule supports — SelectCustom's error otherwise.
// WEIGHTS and COVERAGE default to the instance's configured schemes. A
// BUCKETS clause must match the grouping this instance was built with —
// regrouping per query would silently invalidate every group ID the client
// holds; use ExecuteQuery to build-and-select in one step instead.
func (p *Podium) SelectQuery(src string) (*Selection, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.Buckets != 0 && q.Buckets != p.effectiveBuckets() {
		return nil, fmt.Errorf("podium: query requests %d buckets but this instance was grouped with %d; use ExecuteQuery", q.Buckets, p.effectiveBuckets())
	}
	ws := p.opts.weights
	if q.WeightsSet {
		ws = q.Weights
	}
	cs := p.opts.coverage
	if q.CoverageSet {
		cs = q.Coverage
	}
	fb, err := q.Compile(p.index)
	if err != nil {
		return nil, err
	}
	inst := groups.NewInstance(p.index, ws, cs, q.Budget)
	if len(fb.MustHave) == 0 && len(fb.MustNot) == 0 && len(fb.Priority) == 0 && !fb.StandardExplicit {
		return p.selectRule(inst, q.Budget)
	}
	return p.selectCustom(inst, q.Budget, fb)
}

func (p *Podium) effectiveBuckets() int {
	if p.opts.groupCfg.K <= 0 {
		return 3
	}
	return p.opts.groupCfg.K
}

// ExecuteQuery builds a Podium instance sized to the query (honoring its
// BUCKETS clause) over repo and runs the selection — the one-shot entry
// point for ad-hoc queries.
func ExecuteQuery(repo *Repository, src string, opts ...Option) (*Selection, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if q.Buckets != 0 {
		opts = append(opts, WithBuckets(q.Buckets))
	}
	p, err := New(repo, opts...)
	if err != nil {
		return nil, err
	}
	return p.SelectQuery(src)
}
