package core

import (
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/stats"
)

// Noise configures the randomized selection the paper sketches as future
// work (Section 10): "our implementation adds some randomness in randomly
// breaking ties, and we plan to further incorporation of randomness in our
// solution, e.g., adding noise to group weights, and its effect on the
// output diversity". Both levers are implemented here; the noise ablation
// experiment measures the effect on output diversity.
type Noise struct {
	Seed int64
	// WeightStdDev perturbs every group weight multiplicatively:
	// w' = w · max(0, 1 + σ·N(0,1)). Zero leaves weights exact.
	WeightStdDev float64
	// RandomTies breaks marginal-contribution ties uniformly at random
	// instead of toward the lowest user index.
	RandomTies bool
}

// NoisyGreedy runs Algorithm 1 on a weight-perturbed copy of the instance,
// optionally with randomized tie-breaking (uniform over the argmax set). With
// zero noise and RandomTies false it reproduces Greedy exactly; EBS instances
// without weight noise take Greedy's exact path, where ties cannot occur
// (ranks are unique). The reported Score is always measured under the
// *original* weights, so results across noise levels are comparable.
func NoisyGreedy(inst *groups.Instance, budget int, noise Noise) *Result {
	rng := stats.NewRand(noise.Seed)
	work := inst
	if noise.WeightStdDev > 0 {
		wei := make([]float64, len(inst.Wei))
		for i, w := range inst.Wei {
			f := 1 + noise.WeightStdDev*rng.NormFloat64()
			if f < 0 {
				f = 0
			}
			wei[i] = w * f
		}
		cov := make([]int, len(inst.Cov))
		copy(cov, inst.Cov)
		// The perturbed weights are generic floats; the EBS exact path does
		// not apply to them.
		work = &groups.Instance{Index: inst.Index, Wei: wei, Cov: cov}
	}
	sp := greedySpec{budget: budget}
	if noise.RandomTies {
		sp.rng = rng
	}
	res := greedy(work, sp)
	// Re-score under the true objective.
	res.Score = inst.Score(res.Users)
	return res
}

// SelectionVariety measures output diversity across repeated randomized
// runs: the average pairwise Jaccard *distance* between the selected sets.
// 0 means every run returned the same subset; values near 1 mean nearly
// disjoint outputs.
func SelectionVariety(runs [][]profile.UserID) float64 {
	if len(runs) < 2 {
		return 0
	}
	var sum float64
	var pairs int
	for i := 0; i < len(runs); i++ {
		for j := i + 1; j < len(runs); j++ {
			sum += jaccardSetDistance(runs[i], runs[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

func jaccardSetDistance(a, b []profile.UserID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[profile.UserID]bool, len(a))
	for _, u := range a {
		set[u] = true
	}
	inter := 0
	union := len(set)
	for _, u := range b {
		if set[u] {
			inter++
		} else {
			union++
		}
	}
	return 1 - float64(inter)/float64(union)
}
