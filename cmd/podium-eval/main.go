// podium-eval scores an arbitrary user selection against Podium's intrinsic
// diversity metrics — total score, top-k coverage, intersected coverage,
// distribution similarity and proportionate deviation — so selections made
// by external systems (or by hand) can be compared with Podium's on equal
// footing. Users are given by name or by numeric ID, comma-separated or one
// per line in a file.
//
// Usage:
//
//	podium-eval -in profiles.json -users "Alice,Eve"
//	podium-eval -in corpus.podium -users 0,4,17 -topk 100
//	podium-eval -in profiles.json -users-file panel.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"podium/internal/groups"
	"podium/internal/load"
	"podium/internal/metrics"
	"podium/internal/profile"
)

func main() {
	var (
		in        = flag.String("in", "", "profiles file: JSON, binary or repository log (required); groups are bucketed by -buckets, also for a log, whose committed cuts are not used")
		usersFlag = flag.String("users", "", "comma-separated user names or IDs")
		usersFile = flag.String("users-file", "", "file with one user name or ID per line")
		topK      = flag.Int("topk", 200, "top-k group count for the coverage metrics")
		buckets   = flag.Int("buckets", 3, "score buckets per property")
	)
	flag.Parse()
	if *in == "" || (*usersFlag == "" && *usersFile == "") {
		fmt.Fprintln(os.Stderr, "podium-eval: -in and one of -users/-users-file are required")
		flag.Usage()
		os.Exit(2)
	}
	repo, _, err := load.Repository(*in)
	if err != nil {
		fatal(err)
	}

	var tokens []string
	if *usersFlag != "" {
		tokens = strings.Split(*usersFlag, ",")
	}
	if *usersFile != "" {
		data, err := os.ReadFile(*usersFile)
		if err != nil {
			fatal(err)
		}
		tokens = append(tokens, strings.Split(string(data), "\n")...)
	}
	users, err := resolveUsers(repo, tokens)
	if err != nil {
		fatal(err)
	}

	ix := groups.Build(repo, groups.Config{K: *buckets})
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, len(users))

	fmt.Printf("Repository: %d users, %d properties, %d groups\n",
		repo.NumUsers(), repo.NumProperties(), ix.NumGroups())
	fmt.Printf("Selection:  %d users\n\n", len(users))
	fmt.Printf("%-28s %12.4f\n", "Total score (LBS+Single)", metrics.TotalScore(inst, users))
	fmt.Printf("%-28s %12.4f\n", fmt.Sprintf("Top-%d coverage", *topK), metrics.TopKCoverage(ix, users, *topK))
	fmt.Printf("%-28s %12.4f\n", "Intersected coverage", metrics.IntersectedCoverage(ix, users, *topK))
	fmt.Printf("%-28s %12.4f\n", "Distribution similarity", metrics.DistributionSimilarity(ix, users, 20))
	fmt.Printf("%-28s %12.4f\n", "Proportionate deviation", metrics.ProportionateDeviation(ix, users, *topK))
}

// resolveUsers maps tokens — names or numeric IDs — to user IDs, rejecting
// unknowns and duplicates.
func resolveUsers(repo *profile.Repository, tokens []string) ([]profile.UserID, error) {
	byName := map[string]profile.UserID{}
	for u := 0; u < repo.NumUsers(); u++ {
		byName[repo.UserName(profile.UserID(u))] = profile.UserID(u)
	}
	seen := map[profile.UserID]bool{}
	var users []profile.UserID
	for _, tok := range tokens {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		var u profile.UserID
		if id, err := strconv.Atoi(tok); err == nil {
			if id < 0 || id >= repo.NumUsers() {
				return nil, fmt.Errorf("user id %d out of range [0,%d)", id, repo.NumUsers())
			}
			u = profile.UserID(id)
		} else {
			var ok bool
			u, ok = byName[tok]
			if !ok {
				return nil, fmt.Errorf("no user named %q", tok)
			}
		}
		if seen[u] {
			return nil, fmt.Errorf("user %q listed twice", tok)
		}
		seen[u] = true
		users = append(users, u)
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("no users given")
	}
	return users, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "podium-eval: %v\n", err)
	os.Exit(1)
}
