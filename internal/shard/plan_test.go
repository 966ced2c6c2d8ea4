package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

func buildGlobal(t *testing.T, users int, seed int64) (*groups.Index, groups.Config) {
	t.Helper()
	cfg := synth.ScaleLike(users)
	cfg.Seed = seed
	gcfg := groups.Config{K: 3}
	return groups.Build(synth.Generate(cfg).Repo, gcfg), gcfg
}

func TestPartitionCoversPopulation(t *testing.T) {
	part, err := NewPartition(4, 99)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	assigned := part.Assign(n)
	seen := make([]bool, n)
	for s, us := range assigned {
		prev := profile.UserID(-1)
		for _, u := range us {
			if seen[u] {
				t.Fatalf("user %d on two shards", u)
			}
			seen[u] = true
			if u <= prev {
				t.Fatalf("shard %d user list not ascending at %d", s, u)
			}
			prev = u
			if got := part.Owner(u); got != s {
				t.Fatalf("Owner(%d) = %d, but Assign placed it on %d", u, got, s)
			}
		}
	}
	for u, ok := range seen {
		if !ok {
			t.Fatalf("user %d on no shard", u)
		}
	}
	// Balance: consistent hashing with virtual nodes should keep every
	// shard within a small factor of n/S.
	for s, us := range assigned {
		if len(us) < n/4/3 || len(us) > n/4*3 {
			t.Fatalf("shard %d holds %d of %d users — ring badly unbalanced", s, len(us), n)
		}
	}
}

func TestPartitionDeterministicAndSeedSensitive(t *testing.T) {
	a, _ := NewPartition(8, 7)
	b, _ := NewPartition(8, 7)
	c, _ := NewPartition(8, 8)
	same, diff := true, false
	for u := 0; u < 500; u++ {
		id := profile.UserID(u)
		if a.Owner(id) != b.Owner(id) {
			same = false
		}
		if a.Owner(id) != c.Owner(id) {
			diff = true
		}
	}
	if !same {
		t.Fatal("equal (shards, seed) produced different placements")
	}
	if !diff {
		t.Fatal("different seeds produced identical placements for 500 users")
	}
}

func TestPlanShardsMirrorGlobalBuckets(t *testing.T) {
	ix, gcfg := buildGlobal(t, 400, 11)
	plan, err := NewPlan(ix, gcfg, Options{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := ix.BucketBoundaries()
	for _, sh := range plan.Shards {
		got := sh.Index.BucketBoundaries()
		for p, bs := range got {
			if !reflect.DeepEqual(bs, want[p]) {
				t.Fatalf("shard %d re-derived buckets for property %d:\n got %v\nwant %v", sh.ID, p, bs, want[p])
			}
		}
	}
	// The slices partition the population.
	total := 0
	for _, sh := range plan.Shards {
		total += sh.Repo.NumUsers()
		for local, global := range sh.Users {
			if sh.Repo.UserName(profile.UserID(local)) != ix.Repo().UserName(global) {
				t.Fatalf("shard %d row %d is not global user %d", sh.ID, local, global)
			}
		}
	}
	if total != ix.Repo().NumUsers() {
		t.Fatalf("shards hold %d users, population has %d", total, ix.Repo().NumUsers())
	}
}

// TestCarveMatchesPlan: each shard Carve materializes — the CLI's
// -shards/-shard-id path, which derives the global cuts without a global
// index — holds the same users, pins the same bucket boundaries and indexes
// the same group memberships as NewPlan's shard of that id under the same
// seed, and the carved shards partition the population.
func TestCarveMatchesPlan(t *testing.T) {
	const shards, seed = 4, 7
	ix, gcfg := buildGlobal(t, 400, 13)
	plan, err := NewPlan(ix, gcfg, Options{Shards: shards, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	repo := ix.Repo()
	seen := make([]int, repo.NumUsers())
	for id, want := range plan.Shards {
		sub, scfg, err := Carve(repo, gcfg, shards, id, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scfg.FixedBuckets, ix.BucketBoundaries()) {
			t.Fatalf("shard %d: carved boundaries differ from the global index's", id)
		}
		if sub.NumUsers() != want.Repo.NumUsers() {
			t.Fatalf("shard %d: carved %d users, plan %d", id, sub.NumUsers(), want.Repo.NumUsers())
		}
		for local, global := range want.Users {
			u := profile.UserID(local)
			if sub.UserName(u) != repo.UserName(global) {
				t.Fatalf("shard %d row %d is not global user %d", id, local, global)
			}
			if !reflect.DeepEqual(sub.Profile(u), want.Repo.Profile(u)) {
				t.Fatalf("shard %d row %d: profile differs from the plan's", id, local)
			}
			seen[global]++
		}
		got := groups.Build(sub, scfg)
		if !reflect.DeepEqual(got.BucketBoundaries(), want.Index.BucketBoundaries()) {
			t.Fatalf("shard %d: index boundaries differ from the plan's", id)
		}
		if got.NumGroups() != want.Index.NumGroups() {
			t.Fatalf("shard %d: %d groups, plan %d", id, got.NumGroups(), want.Index.NumGroups())
		}
		for g := 0; g < got.NumGroups(); g++ {
			a, b := got.Group(groups.GroupID(g)), want.Index.Group(groups.GroupID(g))
			if a.Prop != b.Prop || a.BucketIdx != b.BucketIdx || !reflect.DeepEqual(a.Members, b.Members) {
				t.Fatalf("shard %d group %d differs from the plan's", id, g)
			}
		}
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("user %d carved onto %d shards", u, n)
		}
	}
	if _, _, err := Carve(repo, gcfg, shards, shards, seed); err == nil {
		t.Fatal("Carve accepted a shard id outside [0, shards)")
	}
}

// TestMergeGreedyProperty is the randomized proof-harness sweep the issue
// names: 50 random instances, each selected at several shard counts.
// Asserts (a) merged coverage is within the (1−1/e)²-style regime — we use
// the empirically safe floor of 0.4·exact, far below observed ratios but
// above the theoretical composition bound's pessimism for adversarial
// instances; (b) for a fixed partition seed the result is bit-identical
// across worker counts and repeated runs; (c) S=1 merges losslessly.
func TestMergeGreedyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	weights := []groups.WeightScheme{groups.WeightIden, groups.WeightLBS}
	covers := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	for trial := 0; trial < 50; trial++ {
		users := 60 + rng.Intn(240)
		budget := 2 + rng.Intn(8)
		ws := weights[rng.Intn(len(weights))]
		cs := covers[rng.Intn(len(covers))]
		ix, gcfg := buildGlobal(t, users, rng.Int63())
		for _, shards := range []int{1, 3, 5} {
			seed := rng.Uint64()
			plan, err := NewPlan(ix, gcfg, Options{Shards: shards, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			res, proof, err := plan.Prove(ws, cs, budget, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if proof.Ratio < 0.4 {
				t.Fatalf("trial %d S=%d: merged %.4f vs exact %.4f — ratio %.3f below bound",
					trial, shards, proof.Merged, proof.Exact, proof.Ratio)
			}
			if shards == 1 && proof.Ratio != 1 {
				t.Fatalf("trial %d: S=1 lost coverage (ratio %.6f)", trial, proof.Ratio)
			}
			// Bit-identical across worker counts and reruns for the fixed
			// partition seed.
			for _, par := range []int{2, 8} {
				plan2, err := NewPlan(ix, gcfg, Options{Shards: shards, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				res2, err := plan2.Select(ws, cs, budget, core.Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Merged.Users, res2.Merged.Users) || res.Merged.Score != res2.Merged.Score {
					t.Fatalf("trial %d S=%d par=%d: selection not bit-identical:\n %v %.6f\n %v %.6f",
						trial, shards, par, res.Merged.Users, res.Merged.Score, res2.Merged.Users, res2.Merged.Score)
				}
			}
		}
	}
}
