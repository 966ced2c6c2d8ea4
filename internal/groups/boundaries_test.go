package groups_test

import (
	"reflect"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

// TestBoundariesMatchBuild: the index-free pass derives exactly the cuts
// Build's index buckets with, under every splitting method and bucket
// count, and honours a partial FixedBuckets map — the cuts a repository log
// committed for some properties only, which a shard of an `-in x.plog`
// server pins. A pinned entry for a property no user holds is dropped by
// both.
func TestBoundariesMatchBuild(t *testing.T) {
	methods := []bucketing.Method{bucketing.KMeans{}, bucketing.Quantile{}, bucketing.Jenks{}, bucketing.EqualWidth{}}
	for _, users := range []int{300, 3000} {
		repo := synth.Generate(synth.ScaleLike(users)).Repo
		// Cuts from another method and K, pinned for every third property.
		other := groups.Build(repo, groups.Config{K: 4, Method: bucketing.EqualWidth{}}).BucketBoundaries()
		fixed := map[profile.PropertyID][]bucketing.Bucket{
			profile.PropertyID(repo.NumProperties() + 3): other[0],
		}
		for p, bs := range other {
			if p%3 == 0 {
				fixed[p] = bs
			}
		}
		for _, k := range []int{2, 3, 5} {
			for _, m := range methods {
				for _, pinned := range []map[profile.PropertyID][]bucketing.Bucket{nil, fixed} {
					cfg := groups.Config{K: k, Method: m, FixedBuckets: pinned}
					want := groups.Build(repo, cfg).BucketBoundaries()
					got := groups.Boundaries(repo, cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("users=%d K=%d %T pinned=%d: Boundaries differs from Build's BucketBoundaries", users, k, m, len(pinned))
					}
					for p, bs := range pinned {
						if int(p) < repo.NumProperties() && !reflect.DeepEqual(got[p], bs) {
							t.Fatalf("users=%d K=%d %T: property %d not pinned", users, k, m, p)
						}
					}
				}
			}
		}
	}
}
