// Package explain implements the three explanation notions of Definition 5.1
// — group explanations, user explanations and subset-group explanations —
// plus the aggregate report the Podium UI renders (Figure 2): per-user top
// covered groups, the fraction of top-weight groups covered, the weight-
// ordered covered/uncovered group list, and per-property score-distribution
// comparisons between the population and the selected subset.
package explain

import (
	"fmt"
	"io"
	"sort"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
)

// Group is a group explanation ⟨label, wei(G), cov(G)⟩.
type Group struct {
	ID     groups.GroupID `json:"id"`
	Label  string         `json:"label"`
	Weight float64        `json:"weight"`
	Cov    int            `json:"cov"`
}

// User is a user explanation: the groups the user represents — the reason it
// was selected — ordered by decreasing weight, with the user's marginal
// contribution at selection time.
type User struct {
	User     profile.UserID `json:"user"`
	Name     string         `json:"name"`
	Groups   []Group        `json:"groups"`
	Marginal float64        `json:"marginal"`
}

// SubsetGroup is a subset-group explanation ⟨cov(G), |U∩G|⟩: required versus
// actual coverage of one group by the selected subset.
type SubsetGroup struct {
	Group    Group `json:"group"`
	Required int   `json:"required"`
	Actual   int   `json:"actual"`
	Covered  bool  `json:"covered"`
}

// ForGroup builds the group explanation for gid.
func ForGroup(inst *groups.Instance, gid groups.GroupID) Group {
	g := inst.Index.Group(gid)
	return Group{
		ID:     gid,
		Label:  g.Label(inst.Index.Repo().Catalog()),
		Weight: inst.Wei[gid],
		Cov:    inst.Cov[gid],
	}
}

// ForUser builds the user explanation for u; marginal may be zero when the
// selection-time contribution is unknown.
func ForUser(inst *groups.Instance, u profile.UserID, marginal float64) User {
	ue := User{
		User:     u,
		Name:     inst.Index.Repo().UserName(u),
		Marginal: marginal,
	}
	for _, gid := range inst.Index.UserGroups(u) {
		ue.Groups = append(ue.Groups, ForGroup(inst, gid))
	}
	sort.SliceStable(ue.Groups, func(i, j int) bool { return ue.Groups[i].Weight > ue.Groups[j].Weight })
	return ue
}

// ForSubset builds the subset-group explanation of how users cover gid.
func ForSubset(inst *groups.Instance, users []profile.UserID, gid groups.GroupID) SubsetGroup {
	g := inst.Index.Group(gid)
	actual := 0
	for _, u := range users {
		if g.Contains(u) {
			actual++
		}
	}
	return SubsetGroup{
		Group:    ForGroup(inst, gid),
		Required: inst.Cov[gid],
		Actual:   actual,
		Covered:  actual >= inst.Cov[gid],
	}
}

// Report aggregates the explanations for a full selection result, mirroring
// the explanation page of the prototype UI (Figure 2).
type Report struct {
	// Users explains each selected user, in selection order.
	Users []User `json:"users"`
	// Groups lists the subset-group explanation of every group, ordered by
	// decreasing weight (the UI's green/red list).
	Groups []SubsetGroup `json:"groups"`
	// TopK and TopKCovered report how many of the TopK top-weight groups
	// are covered (the "97%" headline of Figure 2).
	TopK        int `json:"top_k"`
	TopKCovered int `json:"top_k_covered"`
}

// TopKFraction returns TopKCovered/TopK, or 0 when TopK is zero.
func (r *Report) TopKFraction() float64 {
	if r.TopK == 0 {
		return 0
	}
	return float64(r.TopKCovered) / float64(r.TopK)
}

// NewReport builds the full report for a selection result. topK bounds the
// headline coverage statistic; it is clamped to the number of groups.
//
// Every group gets its subset-group explanation, but |U∩G| is non-zero only
// on the groups of the picked users, so Actual is counted by walking those
// users' rows of the index (a user repeated in res.Users counts twice, as
// ForSubset counts it) rather than by probing every group for every user.
// The weight-descending group order, ties in ascending ID, is the
// instance's memoized WeightOrder. The result equals ForSubset over every
// group in that order.
func NewReport(inst *groups.Instance, res *core.Result, topK int) *Report {
	rep := &Report{}
	ix := inst.Index
	actual := make([]int, ix.NumGroups())
	for i, u := range res.Users {
		var marg float64
		if i < len(res.Marginals) {
			marg = res.Marginals[i]
		}
		rep.Users = append(rep.Users, ForUser(inst, u, marg))
		for _, gid := range ix.UserGroups(u) {
			actual[gid]++
		}
	}
	order := inst.WeightOrder()
	rep.Groups = make([]SubsetGroup, len(order))
	for i, gid := range order {
		rep.Groups[i] = SubsetGroup{
			Group:    ForGroup(inst, gid),
			Required: inst.Cov[gid],
			Actual:   actual[gid],
			Covered:  actual[gid] >= inst.Cov[gid],
		}
	}
	if topK > len(rep.Groups) {
		topK = len(rep.Groups)
	}
	rep.TopK = topK
	for _, sg := range rep.Groups[:topK] {
		if sg.Covered {
			rep.TopKCovered++
		}
	}
	return rep
}

// Distribution compares the score distribution of one property between the
// population and the selected subset — the right-pane graph of Figure 2 and
// the input to the CD-sim metric. It returns, per bucket of β(p), the
// fraction of the property's population members and of the subset members
// falling in that bucket. Buckets whose group was dropped still appear with
// zero mass.
func Distribution(inst *groups.Instance, users []profile.UserID, prop profile.PropertyID) (all, subset []float64) {
	ix := inst.Index
	buckets := ix.Buckets(prop)
	all = make([]float64, len(buckets))
	subset = make([]float64, len(buckets))
	if len(buckets) == 0 {
		return all, subset
	}
	inSubset := make(map[profile.UserID]bool, len(users))
	for _, u := range users {
		inSubset[u] = true
	}
	var totalAll, totalSub float64
	for _, gid := range ix.GroupsOfProperty(prop) {
		g := ix.Group(gid)
		all[g.BucketIdx] = float64(g.Size())
		totalAll += float64(g.Size())
		for _, u := range g.Members {
			if inSubset[u] {
				subset[g.BucketIdx]++
				totalSub++
			}
		}
	}
	for i := range all {
		if totalAll > 0 {
			all[i] /= totalAll
		}
		if totalSub > 0 {
			subset[i] /= totalSub
		}
	}
	return all, subset
}

// RenderDistribution writes an ASCII bar-chart comparison of a property's
// population-versus-subset distribution — the terminal counterpart of the
// Figure 2 right-pane graph. all and subset are per-bucket fractions;
// bucketLabels names the buckets.
func RenderDistribution(w io.Writer, property string, bucketLabels []string, all, subset []float64) {
	fmt.Fprintf(w, "%s — population (▒) vs selection (█)\n", property)
	const width = 40
	for i := range all {
		label := ""
		if i < len(bucketLabels) {
			label = bucketLabels[i]
		}
		fmt.Fprintf(w, "  %-14s ▒ %-*s %5.1f%%\n", label, width, bar(all[i], width, '▒'), 100*all[i])
		var sub float64
		if i < len(subset) {
			sub = subset[i]
		}
		fmt.Fprintf(w, "  %-14s █ %-*s %5.1f%%\n", "", width, bar(sub, width, '█'), 100*sub)
	}
}

func bar(frac float64, width int, ch rune) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	out := make([]rune, n)
	for i := range out {
		out[i] = ch
	}
	return string(out)
}

// Render writes a human-readable version of the report — the CLI
// counterpart of the UI page.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "Selected %d users; %d/%d top-weight groups covered (%.0f%%)\n",
		len(r.Users), r.TopKCovered, r.TopK, 100*r.TopKFraction())
	for _, u := range r.Users {
		fmt.Fprintf(w, "\n%s (marginal contribution %.4g)\n", u.Name, u.Marginal)
		top := u.Groups
		if len(top) > 5 {
			top = top[:5]
		}
		for _, g := range top {
			fmt.Fprintf(w, "  represents %-50s weight %.4g, cov %d\n", g.Label, g.Weight, g.Cov)
		}
		if len(u.Groups) > 5 {
			fmt.Fprintf(w, "  … and %d more groups\n", len(u.Groups)-5)
		}
	}
	fmt.Fprintf(w, "\nGroup coverage (by decreasing weight):\n")
	for _, sg := range r.Groups {
		mark := "✗"
		if sg.Covered {
			mark = "✓"
		}
		fmt.Fprintf(w, "  %s %-50s required %d, actual %d\n", mark, sg.Group.Label, sg.Required, sg.Actual)
	}
}
