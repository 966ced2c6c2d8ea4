// Package groups implements Podium's grouping module: it derives the simple
// user groups G_{p,b} of Definition 3.4 from a profile repository by
// bucketing each property's score distribution, and maintains the
// bidirectional user↔group adjacency that the greedy selection algorithm's
// complexity bound relies on (Section 4, "Data Structures"). It also
// provides the weight functions (Iden/LBS/EBS, Definition 3.6) and coverage
// functions (Single/Prop, Definition 3.7) that complete a diversification
// instance (𝒢, wei, cov).
package groups

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"podium/internal/bucketing"
	"podium/internal/profile"
)

// GroupID identifies a group by its dense index within an Index.
type GroupID int

// Group is a user group. Simple groups (Definition 3.4) are the users whose
// score for Prop falls in Bucket; complex groups (intersections/unions, see
// complex.go) carry their parent IDs and a synthetic negative Prop. Members
// are sorted by UserID.
type Group struct {
	ID         GroupID
	Kind       GroupKind
	Prop       profile.PropertyID
	Bucket     bucketing.Bucket
	BucketIdx  int       // position of Bucket within β(Prop); simple groups only
	NumBuckets int       // |β(Prop)|; simple groups only
	Parents    []GroupID // complex groups only
	Members    []profile.UserID
	label      string // precomputed for complex groups
}

// Size returns |G|.
func (g *Group) Size() int { return len(g.Members) }

// Label renders the human-readable group label used by explanations
// (Section 5): the property label combined with the bucket label. For
// Boolean properties the bucket label is omitted on the positive bucket
// ("lives in Tokyo" rather than "lives in Tokyo: true"), mirroring
// Example 5.2.
func (g *Group) Label(cat *profile.Catalog) string {
	if g.label != "" {
		return g.label
	}
	return g.renderLabel(cat)
}

// renderLabel builds a simple group's label string. Creation sites cache the
// result in g.label — labels are immutable and clones share the Group
// structs, so the render cost is paid once per group, not once per epoch (the
// explanation report renders every group's label on each selection).
func (g *Group) renderLabel(cat *profile.Catalog) string {
	prop := cat.Label(g.Prop)
	bl := bucketing.Label(g.Bucket, g.BucketIdx, g.NumBuckets)
	switch bl {
	case "true":
		return prop
	case "false":
		return "not " + prop
	}
	return fmt.Sprintf("%s %s %s", bl, "scores for", prop)
}

// Contains reports whether user u is a member (binary search).
func (g *Group) Contains(u profile.UserID) bool {
	i := sort.Search(len(g.Members), func(i int) bool { return g.Members[i] >= u })
	return i < len(g.Members) && g.Members[i] == u
}

// Config controls group construction.
type Config struct {
	// Method is the 1-d splitting strategy; nil selects bucketing.KMeans.
	Method bucketing.Method
	// K is the target bucket count per property; 0 selects 3 (the paper's
	// low/medium/high running example).
	K int
	// MinGroupSize drops groups with fewer members; 0 selects 1 (keep every
	// non-empty group).
	MinGroupSize int
	// FixedBuckets pins β(p) for the listed properties instead of re-deriving
	// cuts from the score distribution. Two callers rely on this: a mutable
	// server restart rebuilds its index from the boundaries the live index
	// actually used (the repository log's boundaries records), and the shard
	// partitioner buckets every shard with the global partition so shard
	// groups mirror global groups. Properties absent from the map fall back
	// to Method as usual.
	FixedBuckets map[profile.PropertyID][]bucketing.Bucket
}

// bucketsFor resolves β(p): the pinned partition when one is fixed for p,
// otherwise a fresh split of the property's score distribution.
func (c Config) bucketsFor(p profile.PropertyID, scores []float64) []bucketing.Bucket {
	if bs, ok := c.FixedBuckets[p]; ok {
		return bs
	}
	return bucketing.Split(scores, c.K, c.Method)
}

func (c Config) withDefaults() Config {
	if c.Method == nil {
		c.Method = bucketing.KMeans{}
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.MinGroupSize <= 0 {
		c.MinGroupSize = 1
	}
	return c
}

// Index is the computed set of groups 𝒢 for a repository, with adjacency in
// both directions: group→members (inside each Group) and user→groups.
type Index struct {
	repo    *profile.Repository
	groups  []*Group
	byUser  [][]GroupID
	byProp  map[profile.PropertyID][]GroupID
	buckets map[profile.PropertyID][]bucketing.Bucket
	// byBucket maps (property, bucket index) → simple group, so incremental
	// maintenance locates a score's destination group in O(1) instead of
	// scanning byProp (which would make batched indexing quadratic in the
	// bucket count). Complex and manual groups are not keyed here.
	byBucket map[bucketKey]GroupID

	// csr caches the frozen adjacency view the selection core iterates;
	// mutators clear it and the next CSR() call rebuilds (csr.go).
	csr atomic.Pointer[CSR]
	// Cached complexity-bound statistics (Prop. 4.4), computed at Build;
	// statsStale flags them for recomputation after incremental mutations.
	maxGroupSize     int
	maxGroupsPerUser int
	statsStale       uint32

	// cow is non-nil on an index produced by Clone: the Group structs, the
	// per-user and per-property group lists and the bucket maps are still
	// shared with the source epoch, and each mutator detaches the pieces it
	// touches first (clone.go). A Build index owns everything (cow == nil).
	cow *cowState

	// rec accumulates the current mutation batch's change records (delta.go);
	// deltaSeq is the sequence-numbered watermark of the last non-empty batch
	// taken, carried forward across Clone so the watermark is monotone over
	// the whole epoch chain.
	rec      *deltaRecorder
	deltaSeq uint64
}

// bucketKey identifies a simple group by its (property, bucket) coordinates.
type bucketKey struct {
	prop profile.PropertyID
	bi   int
}

// Build bucketizes every property and materializes all non-empty groups of
// at least cfg.MinGroupSize members. It is the "offline process" of the
// grouping module in the system architecture (Section 7).
//
// Storage is arena-backed: all group member lists live back-to-back in one
// contiguous arena, and all user→group rows in another, with Group.Members
// and byUser[u] slicing into them (capacity-clamped, so incremental appends
// copy out instead of scribbling over a neighbor's row). The arenas double
// as the frozen CSR view — Build publishes the CSR by aliasing them, zero
// copies. The construction order is identical to the historical per-slice
// build — properties ascending, buckets ascending within a property, members
// ascending by user — so group IDs, labels and every downstream selection
// remain bit-identical.
//
// Per-property bucketing, the dominant cost of the offline grouping module,
// runs on a pool of runtime.GOMAXPROCS(0) workers; the output does not
// depend on the worker count (properties are independent and assembly order
// is fixed).
func Build(repo *profile.Repository, cfg Config) *Index {
	return build(repo, cfg, runtime.GOMAXPROCS(0))
}

// Boundaries returns β(p) for every property some user holds, exactly as
// Build(repo, cfg).BucketBoundaries() would, FixedBuckets included, without
// building the index: it bins only the scores, splits each property, and
// builds no user column, bucket assignment, arena or group. A shard server
// reads the population's cuts this way.
func Boundaries(repo *profile.Repository, cfg Config) map[profile.PropertyID][]bucketing.Bucket {
	parts := partitionAll(binLinks(repo, false), cfg.withDefaults(), runtime.GOMAXPROCS(0), false)
	out := make(map[profile.PropertyID][]bucketing.Bucket)
	for pid, part := range parts {
		if part != nil {
			out[profile.PropertyID(pid)] = append([]bucketing.Bucket(nil), part.buckets...)
		}
	}
	return out
}

// build is Build on a pool of the given number of bucketing workers.
func build(repo *profile.Repository, cfg Config, workers int) *Index {
	cfg = cfg.withDefaults()
	nU := repo.NumUsers()
	nP := repo.NumProperties()
	ix := &Index{
		repo:     repo,
		byProp:   make(map[profile.PropertyID][]GroupID),
		buckets:  make(map[profile.PropertyID][]bucketing.Bucket),
		byBucket: make(map[bucketKey]GroupID),
	}
	links := binLinks(repo, true)
	parts := partitionAll(links, cfg, workers, true)

	// Size the members arena: count surviving groups and their members.
	nGroups, arenaLen := 0, 0
	for pid := 0; pid < nP; pid++ {
		if parts[pid] == nil {
			continue
		}
		for _, c := range parts[pid].counts {
			if c >= cfg.MinGroupSize {
				nGroups++
				arenaLen += c
			}
		}
	}
	memberArena := make([]profile.UserID, arenaLen)
	groupOff := make([]int, nGroups+1)
	ix.groups = make([]*Group, 0, nGroups)
	userCnt := make([]int, nU)

	arenaCur := 0
	for pid := 0; pid < nP; pid++ {
		part := parts[pid]
		if part == nil {
			continue // no user holds the property
		}
		p := profile.PropertyID(pid)
		bs := part.buckets
		ix.buckets[p] = bs
		// Claim arena segments and group IDs in bucket order; wcur[bi] is the
		// write cursor into bucket bi's segment, or -1 for dropped buckets.
		wcur := make([]int, len(bs))
		starts := make([]int, len(bs))
		gids := make([]GroupID, len(bs))
		for bi, c := range part.counts {
			if c < cfg.MinGroupSize {
				wcur[bi] = -1
				continue
			}
			g := &Group{
				ID:         GroupID(len(ix.groups)),
				Prop:       p,
				Bucket:     bs[bi],
				BucketIdx:  bi,
				NumBuckets: len(bs),
			}
			g.label = g.renderLabel(repo.Catalog())
			ix.groups = append(ix.groups, g)
			ix.byProp[p] = append(ix.byProp[p], g.ID)
			ix.byBucket[bucketKey{p, bi}] = g.ID
			groupOff[g.ID] = arenaCur
			starts[bi], wcur[bi], gids[bi] = arenaCur, arenaCur, g.ID
			arenaCur += c
		}
		// Fill the segments; the link segment is in ascending user order, so
		// every group's members come out sorted.
		seg := links.users[links.off[pid]:links.off[pid+1]]
		for i, u := range seg {
			bi := part.asg[i]
			if bi < 0 || wcur[bi] < 0 {
				continue
			}
			memberArena[wcur[bi]] = u
			wcur[bi]++
			userCnt[u]++
		}
		for bi := range bs {
			if wcur[bi] < 0 {
				continue
			}
			g := ix.groups[gids[bi]]
			g.Members = memberArena[starts[bi]:wcur[bi]:wcur[bi]]
		}
	}
	groupOff[nGroups] = arenaLen

	// Invert into the user→group arena; iterating groups in ID order leaves
	// each user's row ascending by GroupID.
	userOff := make([]int, nU+1)
	for u, c := range userCnt {
		userOff[u+1] = userOff[u] + c
	}
	userAdj := make([]GroupID, userOff[nU])
	ucur := make([]int, nU)
	copy(ucur, userOff[:nU])
	for _, g := range ix.groups {
		for _, u := range g.Members {
			userAdj[ucur[u]] = g.ID
			ucur[u]++
		}
	}
	ix.byUser = make([][]GroupID, nU)
	for u := 0; u < nU; u++ {
		a, b := userOff[u], userOff[u+1]
		ix.byUser[u] = userAdj[a:b:b]
	}

	ix.refreshStats()
	// The CSR view is the arenas themselves — nothing to copy.
	ix.csr.Store(&CSR{UserOff: userOff, UserAdj: userAdj, GroupOff: groupOff, GroupAdj: memberArena})
	return ix
}

// NumGroups returns |𝒢|.
func (ix *Index) NumGroups() int { return len(ix.groups) }

// Group returns the group with the given ID; it panics on an unknown ID.
func (ix *Index) Group(id GroupID) *Group {
	if id < 0 || int(id) >= len(ix.groups) {
		panic(fmt.Sprintf("groups: unknown group %d", id))
	}
	return ix.groups[id]
}

// Groups returns the full group slice. Callers must not modify it.
func (ix *Index) Groups() []*Group { return ix.groups }

// UserGroups returns the IDs of the groups containing u, in ascending order.
// Callers must not modify the returned slice.
func (ix *Index) UserGroups(u profile.UserID) []GroupID {
	if int(u) < 0 || int(u) >= len(ix.byUser) {
		panic(fmt.Sprintf("groups: unknown user %d", u))
	}
	return ix.byUser[u]
}

// GroupsOfProperty returns the group IDs derived from property p, in bucket
// order. Empty buckets have no group.
func (ix *Index) GroupsOfProperty(p profile.PropertyID) []GroupID {
	return ix.byProp[p]
}

// Buckets returns β(p) — the full partition computed for property p,
// including buckets whose group was empty or dropped.
func (ix *Index) Buckets(p profile.PropertyID) []bucketing.Bucket {
	return ix.buckets[p]
}

// NumBucketedProperties returns how many properties have a partition β(p).
// The count only ever grows (BucketProperty rejects re-bucketing), so the
// mutable server uses it to detect batches that derived new boundaries.
func (ix *Index) NumBucketedProperties() int { return len(ix.buckets) }

// BucketBoundaries returns a copy of every property's partition β(p) — the
// exact boundaries this index assigns scores with, whether they came from
// Build's splitting method, Config.FixedBuckets, or incremental
// BucketProperty calls. Persisting them and rebuilding with FixedBuckets
// reproduces this index's group memberships from the same repository state.
func (ix *Index) BucketBoundaries() map[profile.PropertyID][]bucketing.Bucket {
	out := make(map[profile.PropertyID][]bucketing.Bucket, len(ix.buckets))
	for p, bs := range ix.buckets {
		out[p] = append([]bucketing.Bucket(nil), bs...)
	}
	return out
}

// Repo returns the underlying repository.
func (ix *Index) Repo() *profile.Repository { return ix.repo }

// MaxGroupSize returns max_G |G| — a factor in Prop. 4.4's complexity bound.
// The value is cached at Build time (the complexity-bound reporting path may
// call it per request) and recomputed only after an incremental mutation.
func (ix *Index) MaxGroupSize() int {
	if atomic.LoadUint32(&ix.statsStale) != 0 {
		ix.refreshStats()
	}
	return ix.maxGroupSize
}

// MaxGroupsPerUser returns max_u |{G : u ∈ G}| — the other factor in the
// complexity bound. Cached like MaxGroupSize.
func (ix *Index) MaxGroupsPerUser() int {
	if atomic.LoadUint32(&ix.statsStale) != 0 {
		ix.refreshStats()
	}
	return ix.maxGroupsPerUser
}

// TopKBySize returns the IDs of the k largest groups, largest first, ties
// broken by lower group ID. Used by the top-k coverage metric (Section 8.2).
func (ix *Index) TopKBySize(k int) []GroupID {
	ids := make([]GroupID, len(ix.groups))
	for i := range ids {
		ids[i] = GroupID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ga, gb := ix.groups[ids[a]], ix.groups[ids[b]]
		if ga.Size() != gb.Size() {
			return ga.Size() > gb.Size()
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// SizeAscOrder returns ord(·) of Definition 3.6: group IDs ordered from
// smallest to largest (ties broken by group ID, a concrete instance of the
// paper's "ties are broken arbitrarily"). The returned slice maps rank →
// GroupID; NewInstance inverts it into Instance.EBSRank.
func (ix *Index) SizeAscOrder() []GroupID {
	ids := make([]GroupID, len(ix.groups))
	for i := range ids {
		ids[i] = GroupID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ga, gb := ix.groups[ids[a]], ix.groups[ids[b]]
		if ga.Size() != gb.Size() {
			return ga.Size() < gb.Size()
		}
		return ids[a] < ids[b]
	})
	return ids
}

// Intersection returns the sorted common members of the given groups. Used
// to evaluate complex groups such as "Tokyo residents who are also Mexican
// food lovers" (Example 3.5) and the intersected-property coverage metric.
func Intersection(gs ...*Group) []profile.UserID {
	if len(gs) == 0 {
		return nil
	}
	out := append([]profile.UserID(nil), gs[0].Members...)
	for _, g := range gs[1:] {
		out = intersectSorted(out, g.Members)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// Union returns the sorted union of the given groups' members.
func Union(gs ...*Group) []profile.UserID {
	seen := map[profile.UserID]bool{}
	for _, g := range gs {
		for _, u := range g.Members {
			seen[u] = true
		}
	}
	out := make([]profile.UserID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func intersectSorted(a, b []profile.UserID) []profile.UserID {
	var out []profile.UserID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// WeightScheme selects one of the paper's weight functions (Definition 3.6).
type WeightScheme int

const (
	// WeightIden assigns every group weight 1 — the most "diverse" choice.
	WeightIden WeightScheme = iota
	// WeightLBS makes group importance linear in group size.
	WeightLBS
	// WeightEBS enforces importance by size: wei(G) = (B+1)^ord(G), so
	// covering a larger group always dominates covering any set of smaller
	// ones.
	WeightEBS
)

func (w WeightScheme) String() string {
	switch w {
	case WeightIden:
		return "Iden"
	case WeightLBS:
		return "LBS"
	case WeightEBS:
		return "EBS"
	}
	return fmt.Sprintf("WeightScheme(%d)", int(w))
}

// ComputeWeights evaluates the scheme for every group. For EBS the float64
// value overflows to +Inf beyond ~300 groups (with B=8); the selection core
// detects EBS and switches to an exact rank-vector comparison, so these
// float values are only used for reporting and for small instances.
func ComputeWeights(ix *Index, scheme WeightScheme, budget int) []float64 {
	w := make([]float64, ix.NumGroups())
	switch scheme {
	case WeightIden:
		for i := range w {
			w[i] = 1
		}
	case WeightLBS:
		for i, g := range ix.groups {
			w[i] = float64(g.Size())
		}
	case WeightEBS:
		base := float64(budget + 1)
		for rank, id := range ix.SizeAscOrder() {
			w[id] = math.Pow(base, float64(rank))
		}
	default:
		panic(fmt.Sprintf("groups: unknown weight scheme %d", scheme))
	}
	return w
}

// CoverageScheme selects one of the paper's coverage functions
// (Definition 3.7).
type CoverageScheme int

const (
	// CoverSingle requires one representative per group.
	CoverSingle CoverageScheme = iota
	// CoverProp requires representation proportional to group size:
	// max(⌊B·|G|/|𝒰|⌋, 1).
	CoverProp
)

func (c CoverageScheme) String() string {
	switch c {
	case CoverSingle:
		return "Single"
	case CoverProp:
		return "Prop"
	}
	return fmt.Sprintf("CoverageScheme(%d)", int(c))
}

// ComputeCoverage evaluates the scheme for every group.
func ComputeCoverage(ix *Index, scheme CoverageScheme, budget int) []int {
	cov := make([]int, ix.NumGroups())
	switch scheme {
	case CoverSingle:
		for i := range cov {
			cov[i] = 1
		}
	case CoverProp:
		n := ix.repo.NumUsers()
		for i, g := range ix.groups {
			c := budget * g.Size() / n
			if c < 1 {
				c = 1
			}
			cov[i] = c
		}
	default:
		panic(fmt.Sprintf("groups: unknown coverage scheme %d", scheme))
	}
	return cov
}

// Instance is a complete diversification instance (𝒢, wei, cov) of
// Definition 3.3, ready for the selection core. Wei and Cov are indexed by
// GroupID.
type Instance struct {
	Index *Index
	Wei   []float64
	Cov   []int
	// EBS marks instances whose weights are EBS, enabling the core's exact
	// rank-comparison path. EBSRank maps GroupID → ord(G) when set.
	EBS     bool
	EBSRank []int

	// baseMarg memoizes BaseMarginals, weightOrder WeightOrder and ruleRows
	// RuleBase. Wei and Cov are set at construction and never mutated in
	// place (derived instances — customization tiers, residual coverage,
	// weight noise — build fresh Instance values), so the memos cannot go
	// stale; they die with the instance, which the server keeps per epoch.
	baseMargOnce    sync.Once
	baseMarg        []float64
	weightOrderOnce sync.Once
	weightOrder     []GroupID
	ruleRows        sync.Map // rule name → *memoRow
}

// memoRow is one lazily computed per-instance row.
type memoRow struct {
	once sync.Once
	row  []float64
}

// NewInstance assembles an instance from the standard scheme choices.
func NewInstance(ix *Index, ws WeightScheme, cs CoverageScheme, budget int) *Instance {
	inst := &Instance{
		Index: ix,
		Wei:   ComputeWeights(ix, ws, budget),
		Cov:   ComputeCoverage(ix, cs, budget),
	}
	if ws == WeightEBS {
		inst.EBS = true
		inst.EBSRank = make([]int, ix.NumGroups())
		for rank, id := range ix.SizeAscOrder() {
			inst.EBSRank[id] = rank
		}
	}
	return inst
}

// Score computes score_𝒢(U) = Σ_G wei(G)·min(|U∩G|, cov(G)) (Definition
// 3.3). U may contain duplicates; they are counted once. The sum runs in
// ascending GroupID order, so an inexact sum (large EBS weights) gives the
// same bits on every call.
func (inst *Instance) Score(users []profile.UserID) float64 {
	hit := make(map[GroupID]int)
	var touched []GroupID
	seen := make(map[profile.UserID]bool, len(users))
	for _, u := range users {
		if seen[u] {
			continue
		}
		seen[u] = true
		for _, g := range inst.Index.UserGroups(u) {
			if hit[g] == 0 {
				touched = append(touched, g)
			}
			hit[g]++
		}
	}
	slices.Sort(touched)
	var total float64
	for _, g := range touched {
		total += inst.Wei[g] * float64(min(hit[g], inst.Cov[g]))
	}
	return total
}

// BaseMarginals returns marg_{u,∅} for every user — Σ_{G∋u, cov(G)>0}
// wei(G), the empty-selection marginal the greedy engine starts from. It is
// an O(links) pass over the CSR member rows, computed once per instance and
// shared by every later selection: the server memoizes instances per
// snapshot epoch, so steady-state select requests skip this pass entirely.
// The sum runs group-major in ascending GroupID order; per-user that is
// ascending group order, bit-identical to summing each user's CSR row, so
// engines seeded from this cache produce exactly the floats they would have
// computed themselves. Safe for concurrent use; callers must not mutate the
// returned slice (the engine copies it before picking).
func (inst *Instance) BaseMarginals() []float64 {
	inst.baseMargOnce.Do(func() {
		ix := inst.Index
		csr := ix.CSR()
		marg := make([]float64, ix.Repo().NumUsers())
		for g, lim := 0, ix.NumGroups(); g < lim; g++ {
			if inst.Cov[g] <= 0 {
				continue
			}
			w := inst.Wei[g]
			for _, m := range csr.Members(GroupID(g)) {
				marg[m] += w
			}
		}
		inst.baseMarg = marg
	})
	return inst.baseMarg
}

// WeightOrder returns every group ID ordered by decreasing weight, ties in
// ascending ID — the order of the explanation report's group list. It
// depends only on Wei, so it is sorted once per instance and shared. Safe for
// concurrent use; callers must not mutate the returned slice.
func (inst *Instance) WeightOrder() []GroupID {
	inst.weightOrderOnce.Do(func() {
		order := make([]GroupID, inst.Index.NumGroups())
		for i := range order {
			order[i] = GroupID(i)
		}
		wei := inst.Wei
		slices.SortStableFunc(order, func(a, b GroupID) int {
			switch {
			case wei[a] > wei[b]:
				return -1
			case wei[a] < wei[b]:
				return 1
			}
			return 0
		})
		inst.weightOrder = order
	})
	return inst.weightOrder
}

// RuleBase returns the empty-selection base row of the named selection
// rule, calling build on the first request per instance and rule and
// sharing its result afterwards — BaseMarginals for rules other than the
// default, whose credit schedules this package does not know. build must be
// a pure function of the instance. Safe for concurrent use; callers must
// not mutate the returned slice.
func (inst *Instance) RuleBase(rule string, build func() []float64) []float64 {
	v, ok := inst.ruleRows.Load(rule)
	if !ok {
		v, _ = inst.ruleRows.LoadOrStore(rule, &memoRow{})
	}
	m := v.(*memoRow)
	m.once.Do(func() { m.row = build() })
	return m.row
}

// MaxScore returns Σ_G wei(G)·cov(G) — the ceiling of any score, used by
// customization to build the tiered objective (Section 6) and by the
// branch-and-bound optimal baseline.
func (inst *Instance) MaxScore() float64 {
	var total float64
	for g := range inst.Wei {
		total += inst.Wei[g] * float64(inst.Cov[g])
	}
	return total
}
