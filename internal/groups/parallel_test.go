package groups

import (
	"fmt"
	"testing"

	"podium/internal/profile"
	"podium/internal/stats"
)

func randomRepo(seed int64, users, props int) *profile.Repository {
	rng := stats.NewRand(seed)
	repo := profile.NewRepository()
	for u := 0; u < users; u++ {
		id := repo.AddUser(fmt.Sprintf("u%d", u))
		for p := 0; p < props; p++ {
			if rng.Float64() < 0.6 {
				repo.MustSetScore(id, fmt.Sprintf("p%02d", p), rng.Float64())
			}
		}
	}
	return repo
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, workers := range []int{2, 4, 9} {
		// Fresh repositories per run: Build forces lazy profile sorting, and
		// sharing one repo would hide ordering bugs.
		seq := build(randomRepo(3, 120, 25), Config{K: 3}, 1)
		par := build(randomRepo(3, 120, 25), Config{K: 3}, workers)
		if seq.NumGroups() != par.NumGroups() {
			t.Fatalf("workers=%d: %d vs %d groups", workers, par.NumGroups(), seq.NumGroups())
		}
		for i := 0; i < seq.NumGroups(); i++ {
			a, b := seq.Group(GroupID(i)), par.Group(GroupID(i))
			if a.Prop != b.Prop || a.BucketIdx != b.BucketIdx || a.Bucket != b.Bucket {
				t.Fatalf("workers=%d: group %d metadata differs", workers, i)
			}
			if len(a.Members) != len(b.Members) {
				t.Fatalf("workers=%d: group %d member counts differ", workers, i)
			}
			for j := range a.Members {
				if a.Members[j] != b.Members[j] {
					t.Fatalf("workers=%d: group %d members differ", workers, i)
				}
			}
		}
		for u := 0; u < 120; u++ {
			a, b := seq.UserGroups(profile.UserID(u)), par.UserGroups(profile.UserID(u))
			if len(a) != len(b) {
				t.Fatalf("workers=%d: user %d group counts differ", workers, u)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("workers=%d: user %d groups differ", workers, u)
				}
			}
		}
	}
}

func TestParallelBuildMoreWorkersThanProperties(t *testing.T) {
	repo := randomRepo(5, 20, 3)
	ix := build(repo, Config{K: 3}, 64)
	if ix.NumGroups() == 0 {
		t.Fatal("no groups built")
	}
}
