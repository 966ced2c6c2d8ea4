// Package podium is a framework for selecting diverse user subsets for
// opinion procurement, reproducing "Diverse User Selection for Opinion
// Procurement" (Amsterdamer & Goldreich, EDBT 2020).
//
// Given a repository of user profiles — sparse sets of properties with
// scores in [0,1] — Podium derives population groups by bucketing each
// property's score distribution (Definition 3.4), assigns them weights and
// coverage requirements (Definitions 3.6-3.7), and greedily selects a
// budget-bounded user subset whose total group-coverage score is within
// (1−1/e) of optimal (Proposition 4.4). Selections come with explanations
// (Section 5) and can be customized with must-have / must-not / priority
// group feedback (Section 6).
//
// Basic use:
//
//	repo := podium.NewRepository()
//	u := repo.AddUser("alice")
//	repo.SetScore(u, "livesIn Tokyo", 1)
//	...
//	p, err := podium.New(repo)
//	sel, err := p.Select(8)
//	sel.Report.Render(os.Stdout)
//
// The cmd/ directory contains the CLI tools and HTTP server; examples/
// contains runnable scenarios; DESIGN.md and EXPERIMENTS.md document the
// architecture and the reproduced evaluation.
package podium

import (
	"fmt"
	"io"

	"podium/internal/bucketing"
	"podium/internal/campaign"
	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
	"podium/internal/profile"
)

// Re-exported model types. Aliases keep the facade thin: the internal
// packages do the work, and external callers name everything as podium.X.
type (
	// UserID identifies a user in a Repository.
	UserID = profile.UserID
	// PropertyID identifies an interned property label.
	PropertyID = profile.PropertyID
	// Repository holds the user population and profiles (Section 3.1).
	Repository = profile.Repository
	// GroupID identifies a derived user group.
	GroupID = groups.GroupID
	// Group is a simple user group G_{p,b} (Definition 3.4).
	Group = groups.Group
	// Bucket is a score range b ⊆ [0,1].
	Bucket = bucketing.Bucket
	// Feedback is customization feedback (Definition 6.1).
	Feedback = core.Feedback
	// Report aggregates the explanations of a selection (Section 5).
	Report = explain.Report
	// WeightScheme selects Iden, LBS or EBS group weights.
	WeightScheme = groups.WeightScheme
	// CoverageScheme selects Single or Prop coverage.
	CoverageScheme = groups.CoverageScheme
	// Campaign is an asynchronous opinion-procurement campaign: multi-round
	// solicitation with timeout/backoff retries and coverage repair
	// (internal/campaign).
	Campaign = campaign.Campaign
	// CampaignConfig parameterizes a campaign; zero fields select defaults.
	CampaignConfig = campaign.Config
	// CampaignBehavior parameterizes the simulated population.
	CampaignBehavior = campaign.Behavior
)

// Weight and coverage scheme values (Definitions 3.6 and 3.7).
const (
	WeightIden  = groups.WeightIden
	WeightLBS   = groups.WeightLBS
	WeightEBS   = groups.WeightEBS
	CoverSingle = groups.CoverSingle
	CoverProp   = groups.CoverProp
)

// NewRepository returns an empty profile repository.
func NewRepository() *Repository { return profile.NewRepository() }

// LoadRepository parses the JSON profile format the prototype ingests:
// {"users":[{"name":...,"properties":{label:score,...}},...]}.
func LoadRepository(r io.Reader) (*Repository, error) { return profile.ReadJSON(r) }

// Option customizes a Podium instance.
type Option func(*options)

type options struct {
	groupCfg groups.Config
	weights  WeightScheme
	coverage CoverageScheme
	rule     string
	topK     int
}

// WithBuckets sets the number of score buckets per property (default 3:
// low/medium/high).
func WithBuckets(k int) Option { return func(o *options) { o.groupCfg.K = k } }

// WithBucketing selects the 1-d splitting method by name: equal-width,
// quantile, jenks, kmeans (default), em, kde-valleys.
func WithBucketing(name string) Option {
	return func(o *options) { o.groupCfg.Method = methodByName(name) }
}

// WithFixedCuts bucketizes every property at the given interior cut points
// (e.g. 0.4, 0.65 for the paper's low/medium/high example).
func WithFixedCuts(cuts ...float64) Option {
	return func(o *options) { o.groupCfg.Method = bucketing.Fixed{Interior: cuts} }
}

// WithMinGroupSize drops groups smaller than n users.
func WithMinGroupSize(n int) Option { return func(o *options) { o.groupCfg.MinGroupSize = n } }

// WithWeights selects the group weight scheme (default LBS).
func WithWeights(w WeightScheme) Option { return func(o *options) { o.weights = w } }

// WithCoverage selects the coverage scheme (default Single).
func WithCoverage(c CoverageScheme) Option { return func(o *options) { o.coverage = c } }

// WithRule selects the marginal-gain rule Select optimizes — one of
// RuleNames(): "coverage" (default, the paper's objective), "harmonic",
// "maxcov", or "fairness-floor". Unknown names error at New.
func WithRule(name string) Option { return func(o *options) { o.rule = name } }

// RuleNames lists the registered selection rules in wire order, the default
// coverage rule first.
func RuleNames() []string { return core.RuleNames() }

// WithTopK sets how many top-weight groups the report's headline coverage
// statistic considers (default 200, the paper's choice).
func WithTopK(k int) Option { return func(o *options) { o.topK = k } }

func methodByName(name string) bucketing.Method {
	switch name {
	case "equal-width":
		return bucketing.EqualWidth{}
	case "quantile":
		return bucketing.Quantile{}
	case "jenks":
		return bucketing.Jenks{}
	case "", "kmeans":
		return bucketing.KMeans{}
	case "em":
		return bucketing.EM{}
	case "kde-valleys":
		return bucketing.KDEValleys{}
	}
	panic(fmt.Sprintf("podium: unknown bucketing method %q", name))
}

// Podium is a configured selector over one repository. The group index is
// computed once at construction (the offline grouping module of Figure 1);
// Select and SelectCustom are read-only afterwards and safe for concurrent
// use.
type Podium struct {
	repo  *Repository
	index *groups.Index
	opts  options
	rule  *core.Rule
}

// New builds a Podium instance, running the grouping module over repo.
func New(repo *Repository, opts ...Option) (*Podium, error) {
	if repo == nil {
		return nil, fmt.Errorf("podium: nil repository")
	}
	o := options{weights: WeightLBS, coverage: CoverSingle, topK: 200}
	for _, opt := range opts {
		opt(&o)
	}
	rule, err := core.LookupRule(o.rule)
	if err != nil {
		return nil, fmt.Errorf("podium: %w", err)
	}
	if o.weights == WeightEBS && !rule.EBSCompatible() {
		return nil, fmt.Errorf("podium: rule %q does not support EBS weights", rule.Name())
	}
	return &Podium{
		repo:  repo,
		index: groups.Build(repo, o.groupCfg),
		opts:  o,
		rule:  rule,
	}, nil
}

// Repository returns the underlying repository.
func (p *Podium) Repository() *Repository { return p.repo }

// NumGroups returns the number of derived groups |𝒢|.
func (p *Podium) NumGroups() int { return p.index.NumGroups() }

// Groups returns all derived groups. Callers must not modify the slice.
func (p *Podium) Groups() []*Group { return p.index.Groups() }

// GroupLabel renders a group's human-readable label.
func (p *Podium) GroupLabel(id GroupID) string {
	return p.index.Group(id).Label(p.repo.Catalog())
}

// AddManualGroup registers a client-defined group (Section 3.2: manually
// crafted groups "as typically defined by surveyors"). The group joins the
// weight/coverage machinery of every subsequent selection and its label
// appears verbatim in explanations. The returned ID is usable in Feedback.
func (p *Podium) AddManualGroup(label string, users []UserID) (GroupID, error) {
	return p.index.AddManualGroup(label, users)
}

// AddIntersectionGroup materializes the intersection of existing groups as a
// first-class group (Example 3.5: "Tokyo residents who are also Mexican
// food lovers").
func (p *Podium) AddIntersectionGroup(ids ...GroupID) (GroupID, error) {
	return p.index.AddIntersection(ids...)
}

// GroupsOfProperty returns the group IDs derived from a property label, in
// bucket order, or nil when the label is unknown.
func (p *Podium) GroupsOfProperty(label string) []GroupID {
	pid, ok := p.repo.Catalog().Lookup(label)
	if !ok {
		return nil
	}
	return p.index.GroupsOfProperty(pid)
}

// Selection is the outcome of Select or SelectCustom.
type Selection struct {
	// Users holds the selected subset in selection order.
	Users []UserID
	// Names are the users' display names, aligned with Users.
	Names []string
	// Score is the selection's total score (Definition 3.3).
	Score float64
	// Report carries the Definition 5.1 explanations.
	Report *Report
	// PriorityScore and StandardScore decompose a customized selection's
	// score by feedback tier (zero for plain selections).
	PriorityScore, StandardScore float64
}

// Select solves BASE-DIVERSITY under the configured rule (coverage by
// default: the total coverage score) via the (1−1/e) greedy of Algorithm 1.
func (p *Podium) Select(budget int) (*Selection, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("podium: budget must be positive, got %d", budget)
	}
	return p.selectRule(groups.NewInstance(p.index, p.opts.weights, p.opts.coverage, budget), budget)
}

// selectRule runs the configured rule's greedy on inst.
func (p *Podium) selectRule(inst *groups.Instance, budget int) (*Selection, error) {
	res, err := core.GreedyRule(inst, budget, p.rule, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("podium: %w", err)
	}
	return p.finish(inst, res, 0, 0), nil
}

// SelectCustom solves CUSTOM-DIVERSITY: selection under the given feedback
// (Section 6). Feedback group IDs must come from this instance's Groups.
func (p *Podium) SelectCustom(budget int, fb Feedback) (*Selection, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("podium: budget must be positive, got %d", budget)
	}
	return p.selectCustom(groups.NewInstance(p.index, p.opts.weights, p.opts.coverage, budget), budget, fb)
}

// selectCustom runs the customized greedy on inst; feedback refines only the
// default coverage rule.
func (p *Podium) selectCustom(inst *groups.Instance, budget int, fb Feedback) (*Selection, error) {
	if !p.rule.IsDefault() {
		return nil, fmt.Errorf("podium: feedback customization supports only the default coverage rule (got %q)", p.rule.Name())
	}
	res, err := core.GreedyCustom(inst, fb, budget)
	if err != nil {
		return nil, err
	}
	return p.finish(inst, res.Result, res.PriorityScore, res.StandardScore), nil
}

// NewCampaign builds an opinion-procurement campaign over this instance's
// groups (weights and coverage from the Podium options, budget from cfg).
// walPath != "" journals the campaign there, resuming an interrupted run;
// "" keeps it in memory. Drive the returned campaign with Run, observe with
// Status/Transcript, stop with Cancel.
func (p *Podium) NewCampaign(cfg CampaignConfig, walPath string) (*Campaign, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("podium: campaign budget must be positive, got %d", cfg.Budget)
	}
	inst := groups.NewInstance(p.index, p.opts.weights, p.opts.coverage, cfg.Budget)
	if walPath == "" {
		return campaign.New(inst, nil, cfg), nil
	}
	return campaign.NewWithWAL(inst, nil, cfg, walPath)
}

func (p *Podium) finish(inst *groups.Instance, res *core.Result, prio, std float64) *Selection {
	sel := &Selection{
		Users:         res.Users,
		Score:         inst.Score(res.Users),
		Report:        explain.NewReport(inst, res, p.opts.topK),
		PriorityScore: prio,
		StandardScore: std,
	}
	for _, u := range res.Users {
		sel.Names = append(sel.Names, p.repo.UserName(u))
	}
	return sel
}

// Distribution compares a property's score distribution between the full
// population and a user subset: per bucket of β(p), the fraction of property
// holders (population) and of subset members (selection) in that bucket.
// The error names unknown property labels.
func (p *Podium) Distribution(label string, users []UserID) (all, subset []float64, buckets []Bucket, err error) {
	pid, ok := p.repo.Catalog().Lookup(label)
	if !ok {
		return nil, nil, nil, fmt.Errorf("podium: unknown property %q", label)
	}
	inst := groups.NewInstance(p.index, p.opts.weights, p.opts.coverage, 1)
	all, subset = explain.Distribution(inst, users, pid)
	return all, subset, p.index.Buckets(pid), nil
}
