// podium-select runs one diverse-user selection over a profiles JSON file
// and prints the selected users with their explanations (Section 5 of the
// paper). Customization feedback (Section 6) is given as property labels:
// every group (bucket) of the named property joins the corresponding
// feedback set.
//
// Usage:
//
//	podium-select -in profiles.json -budget 8
//	podium-select -in profiles.json -weights Iden -coverage Prop -buckets 5
//	podium-select -in profiles.json -must-have "avgRating Mexican" -priority "livesIn Tokyo"
//	podium-select -in profiles.json -campaign -non-response 0.3 -wal run.wal
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"podium"
	"podium/internal/explain"
	"podium/internal/load"
	"podium/internal/taxonomy"
)

type labelList []string

func (l *labelList) String() string { return strings.Join(*l, ",") }
func (l *labelList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		in       = flag.String("in", "", "profiles file: JSON, binary or repository log (required); groups are bucketed by -method and -buckets, also for a log, whose committed cuts are not used")
		budget   = flag.Int("budget", 8, "number of users to select")
		weights  = flag.String("weights", "LBS", "weight scheme: Iden | LBS | EBS")
		coverage = flag.String("coverage", "Single", "coverage scheme: Single | Prop")
		rule     = flag.String("rule", "", "selection rule: "+strings.Join(podium.RuleNames(), " | ")+" (default coverage)")
		buckets  = flag.Int("buckets", 3, "score buckets per property")
		method   = flag.String("method", "kmeans", "bucketing: equal-width | quantile | jenks | kmeans | em | kde-valleys")
		topK     = flag.Int("topk", 200, "top-weight groups in the headline coverage statistic")
		distProp = flag.String("distribution", "", "also chart this property's population-vs-selection distribution")
		mine     = flag.Bool("mine-functional", false, "mine functional property families and apply the inferred falsehoods before grouping")

		// Campaign mode: asynchronous procurement rounds with non-response
		// repair instead of a one-shot selection.
		campaignMode = flag.Bool("campaign", false, "run an asynchronous procurement campaign (solicit, retry, repair)")
		campSeed     = flag.Int64("seed", 1, "campaign: simulation seed")
		nonResponse  = flag.Float64("non-response", 0.2, "campaign: population non-response probability (negative = none)")
		decline      = flag.Float64("decline", 0, "campaign: probability a user refuses the campaign outright")
		maxRounds    = flag.Int("max-rounds", 6, "campaign: select→solicit→repair cycles before giving up")
		walPath      = flag.String("wal", "", "campaign: journal path — resumes an interrupted campaign")
	)
	queryStr := flag.String("query", "", "declarative selection query (overrides the other selection flags)")
	var mustHave, mustNot, priority labelList
	flag.Var(&mustHave, "must-have", "property whose groups are 𝒢₊ (repeatable)")
	flag.Var(&mustNot, "must-not", "property whose groups are 𝒢₋ (repeatable)")
	flag.Var(&priority, "priority", "property whose groups get priority coverage (repeatable)")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "podium-select: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	// Any on-disk format works: JSON, binary (.podium), repository log
	// (.plog) — detected by magic bytes.
	repo, _, err := load.Repository(*in)
	if err != nil {
		fatal(err)
	}
	if *mine {
		mined, derived, err := taxonomy.MineAndApplyFunctionalRules(repo, " ", 2)
		if err != nil {
			fatal(err)
		}
		for _, m := range mined {
			fmt.Fprintf(os.Stderr, "mined functional family %q (%d variants, support %d)\n",
				m.Prefix, len(m.Variants), m.Support)
		}
		fmt.Fprintf(os.Stderr, "inference derived %d scores\n\n", derived)
	}

	ws, err := parseWeights(*weights)
	if err != nil {
		fatal(err)
	}
	cs, err := parseCoverage(*coverage)
	if err != nil {
		fatal(err)
	}
	p, err := podium.New(repo,
		podium.WithBuckets(*buckets),
		podium.WithBucketing(*method),
		podium.WithWeights(ws),
		podium.WithCoverage(cs),
		podium.WithRule(*rule),
		podium.WithTopK(*topK),
	)
	if err != nil {
		fatal(err)
	}

	if *campaignMode {
		runCampaign(p, repo, *budget, *rule, *campSeed, *nonResponse, *decline, *maxRounds, *walPath)
		return
	}

	var sel *podium.Selection
	if *queryStr != "" {
		sel, err = p.SelectQuery(*queryStr)
	} else {
		var fb podium.Feedback
		fb, err = buildFeedback(p, mustHave, mustNot, priority)
		if err != nil {
			fatal(err)
		}
		if len(fb.MustHave)+len(fb.MustNot)+len(fb.Priority) == 0 {
			sel, err = p.Select(*budget)
		} else {
			sel, err = p.SelectCustom(*budget, fb)
		}
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Repository: %d users, %d properties, %d groups\n\n",
		repo.NumUsers(), repo.NumProperties(), p.NumGroups())
	sel.Report.Render(os.Stdout)
	if sel.PriorityScore > 0 || sel.StandardScore > 0 {
		fmt.Printf("\nPriority-tier score: %.4g   Standard-tier score: %.4g\n",
			sel.PriorityScore, sel.StandardScore)
	}
	if *distProp != "" {
		all, subset, bs, err := p.Distribution(*distProp, sel.Users)
		if err != nil {
			fatal(err)
		}
		labels := make([]string, len(bs))
		for i, b := range bs {
			labels[i] = b.String()
		}
		fmt.Println()
		explain.RenderDistribution(os.Stdout, *distProp, labels, all, subset)
	}
}

// runCampaign drives an asynchronous procurement campaign and prints its
// per-round transcript: who was selected, how each solicitation wave went,
// who dropped out, and the coverage the accepted panel reached.
func runCampaign(p *podium.Podium, repo *podium.Repository, budget int, rule string, seed int64, nonResponse, decline float64, maxRounds int, walPath string) {
	cfg := podium.CampaignConfig{
		Budget:    budget,
		Rule:      rule,
		MaxRounds: maxRounds,
		Seed:      seed,
		Behavior: podium.CampaignBehavior{
			NonResponse: nonResponse,
			Decline:     decline,
		},
	}
	c, err := p.NewCampaign(cfg, walPath)
	if err != nil {
		fatal(err)
	}
	if err := c.Run(); err != nil {
		fatal(err)
	}

	fmt.Printf("Repository: %d users, %d properties, %d groups\n",
		repo.NumUsers(), repo.NumProperties(), p.NumGroups())
	fmt.Printf("Campaign: budget %d, seed %d, non-response %.2g, decline %.2g\n\n",
		budget, seed, nonResponse, decline)

	for _, rr := range c.Transcript() {
		kind := "select"
		if rr.Repaired {
			kind = "repair"
		}
		fmt.Printf("round %d (%s): solicited %d users\n", rr.Round, kind, len(rr.Selected))
		for _, w := range rr.Waves {
			counts := map[string]int{}
			for _, res := range w.Results {
				counts[res.Outcome.String()]++
			}
			fmt.Printf("  wave %d (backoff %.0fms): %d asked — %d answered, %d late, %d silent, %d declined\n",
				w.Attempt, w.BackoffMs, len(w.Results),
				counts["answered"], counts["late"], counts["silent"], counts["declined"])
		}
		fmt.Printf("  dead after round: %d   panel coverage: %.4g\n", len(rr.Dead), rr.Coverage)
	}

	st := c.Status()
	verdict := "exhausted (rounds or candidates ran out)"
	switch {
	case st.Converged:
		verdict = "converged (panel filled)"
	case st.Cancelled:
		verdict = "cancelled"
	}
	fmt.Printf("\nVerdict: %s\n", verdict)
	fmt.Printf("Panel (%d/%d accepted, coverage %.4g):\n", len(st.Accepted), budget, st.Coverage)
	for _, u := range st.Accepted {
		fmt.Printf("  %s\n", repo.UserName(u))
	}
	cs := c.Stats()
	fmt.Printf("\n%d rounds, %d waves, %d solicitations; %d repair selections replaced %d users (%.1fms repair wall time)\n",
		cs.Rounds, cs.Waves, cs.Solicited, cs.RepairSelections, cs.RepairedUsers, cs.RepairWallMs)
}

func buildFeedback(p *podium.Podium, mustHave, mustNot, priority labelList) (podium.Feedback, error) {
	var fb podium.Feedback
	expand := func(labels labelList, kind string) ([]podium.GroupID, error) {
		var ids []podium.GroupID
		for _, label := range labels {
			gs := p.GroupsOfProperty(label)
			if gs == nil {
				return nil, fmt.Errorf("%s: no property %q in the repository", kind, label)
			}
			ids = append(ids, gs...)
		}
		return ids, nil
	}
	var err error
	if fb.MustHave, err = expand(mustHave, "must-have"); err != nil {
		return fb, err
	}
	if fb.MustNot, err = expand(mustNot, "must-not"); err != nil {
		return fb, err
	}
	if fb.Priority, err = expand(priority, "priority"); err != nil {
		return fb, err
	}
	return fb, nil
}

func parseWeights(s string) (podium.WeightScheme, error) {
	switch strings.ToLower(s) {
	case "iden":
		return podium.WeightIden, nil
	case "lbs":
		return podium.WeightLBS, nil
	case "ebs":
		return podium.WeightEBS, nil
	}
	return 0, fmt.Errorf("unknown weight scheme %q", s)
}

func parseCoverage(s string) (podium.CoverageScheme, error) {
	switch strings.ToLower(s) {
	case "single":
		return podium.CoverSingle, nil
	case "prop":
		return podium.CoverProp, nil
	}
	return 0, fmt.Errorf("unknown coverage scheme %q", s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "podium-select: %v\n", err)
	os.Exit(1)
}
