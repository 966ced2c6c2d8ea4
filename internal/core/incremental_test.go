package core

import (
	"fmt"
	"math/rand"
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

// applyRandomBatch applies ops random mutations to the (cloned) repo and
// index through the same funnels the mutable server uses: user additions via
// AddUser + IndexUser, score moves via SetScore + UpdateScore, and — when
// newProp is set — a brand-new property bucketed live via BucketProperty,
// which marks the batch reshaped.
func applyRandomBatch(t *testing.T, rng *rand.Rand, repo *profile.Repository, ix *groups.Index, ops int, newProp string) {
	t.Helper()
	labels := repo.Catalog().Labels()
	for i := 0; i < ops; i++ {
		if rng.Intn(4) == 0 {
			u := repo.AddUser(fmt.Sprintf("mut-user-%d-%d", repo.NumUsers(), i))
			for k := 0; k < 3; k++ {
				if err := repo.SetScore(u, labels[rng.Intn(len(labels))], rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ix.IndexUser(u); err != nil {
				t.Fatal(err)
			}
			continue
		}
		u := profile.UserID(rng.Intn(repo.NumUsers()))
		label := labels[rng.Intn(len(labels))]
		if err := repo.SetScore(u, label, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		pid, _ := repo.Catalog().Lookup(label)
		if err := ix.UpdateScore(u, pid); err != nil {
			t.Fatal(err)
		}
	}
	if newProp != "" {
		u := profile.UserID(rng.Intn(repo.NumUsers()))
		if err := repo.SetScore(u, newProp, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		pid, _ := repo.Catalog().Lookup(newProp)
		if err := ix.BucketProperty(pid, groups.Config{K: 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: a delta-repaired SelectorState is bit-identical to the reference
// greedy (and a fresh engine run) after every randomized mutation batch.
// 50 instances across all three synthetic presets and all scheme pairs,
// checked at parallelism 1/2/8 after each of four batches per instance —
// including a reshaping batch (new property) and an oversized batch that
// exercises the conservative full-recompute fallback.
func TestSelectorStateBitIdentity(t *testing.T) {
	forceShardedPaths(t)
	const budget = 6
	wss := []groups.WeightScheme{groups.WeightLBS, groups.WeightIden, groups.WeightEBS}
	css := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	var totalRepairs, totalRecomputes uint64
	for i := 0; i < 50; i++ {
		users := 40 + i*5
		var cfg synth.Config
		switch i % 3 {
		case 0:
			cfg = synth.TripAdvisorLike(users)
		case 1:
			cfg = synth.YelpLike(users)
		default:
			cfg = synth.ScaleLike(users)
		}
		cfg.Seed += int64(i)
		ws := wss[i%len(wss)]
		cs := css[(i/3)%len(css)]
		t.Run(fmt.Sprintf("%s-%d-%s-%s", cfg.Name, users, ws, cs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + i)))
			repo := synth.Generate(cfg).Repo
			ix := groups.Build(repo, groups.Config{K: 3})
			ix.Freeze()

			st := NewSelectorState()
			inst := groups.NewInstance(ix, ws, cs, budget)
			st.Sync(inst, nil, false)

			check := func(round int, inst *groups.Instance) {
				t.Helper()
				want := ReferenceGreedy(inst, budget, nil)
				for _, par := range []int{1, 2, 8} {
					if fresh := GreedyOpts(inst, budget, Options{Parallelism: par}); !sameResult(want, fresh) {
						t.Fatalf("round %d: fresh greedy diverged from reference at parallelism %d", round, par)
					}
					if got := st.Select(inst, budget, Options{Parallelism: par}); !sameResult(want, got) {
						t.Fatalf("round %d: repaired state diverged from reference at parallelism %d", round, par)
					}
				}
			}
			check(0, inst)

			for round := 1; round <= 4; round++ {
				repo2 := repo.Clone()
				ix2 := ix.Clone(repo2)
				ops := 1 + rng.Intn(6)
				newProp := ""
				switch round {
				case 3:
					// Reshape: a property first seen live.
					newProp = fmt.Sprintf("live-prop-%d-%d", i, round)
				case 4:
					// Oversized batch: force the threshold fallback.
					ops = repo2.NumUsers()
				}
				applyRandomBatch(t, rng, repo2, ix2, ops, newProp)
				// The delta may legitimately be empty: score updates that stay
				// in the same bucket move no adjacency. Sync still runs — an
				// empty repair must be as bit-identical as a busy one.
				d := ix2.TakeDelta()
				if newProp != "" && !d.Reshaped {
					t.Fatalf("round %d: BucketProperty batch not marked reshaped", round)
				}
				ix2.Freeze()
				repo, ix = repo2, ix2
				inst = groups.NewInstance(ix, ws, cs, budget)
				st.Sync(inst, d.Users, d.Reshaped)
				check(round, inst)
			}
			totalRepairs += st.Repairs
			totalRecomputes += st.Recomputes
		})
	}
	// Both Sync paths must actually have been exercised by the sweep.
	if totalRepairs == 0 {
		t.Fatal("no Sync took the delta-repair path")
	}
	if totalRecomputes == 0 {
		t.Fatal("no Sync took the full-recompute path")
	}
}
