package groups

import (
	"sync"

	"podium/internal/bucketing"
	"podium/internal/profile"
)

// propBuckets is the per-property output of the incremental bucketing path:
// the partition β(p) and, per bucket, the sorted member users. The bulk
// Build path does not materialize per-bucket slices — see propLinks /
// propPartition below — but BucketProperty still buckets one property at a
// time through here.
type propBuckets struct {
	buckets []bucketing.Bucket
	members [][]profile.UserID
}

func bucketizeProperty(repo *profile.Repository, cfg Config, p profile.PropertyID) *propBuckets {
	users, scores := repo.PropertyValues(p)
	if len(users) == 0 {
		return nil
	}
	bs := cfg.bucketsFor(p, scores)
	members := make([][]profile.UserID, len(bs))
	for i, u := range users {
		if b := bucketing.Assign(bs, scores[i]); b >= 0 {
			members[b] = append(members[b], u)
		}
	}
	return &propBuckets{buckets: bs, members: members}
}

// propLinks is every (user, property, score) link of the repository binned
// by property into contiguous arenas: property p's scores are
// scores[off[p]:off[p+1]], and its holders users[off[p]:off[p+1]]
// (ascending UserID — rows are visited in user order). One O(links) pass
// replaces the per-property full-repository scans of the pre-columnar build,
// turning the bucketing stage from O(properties × links) into O(links).
// users is nil when the links were binned for their cuts alone.
type propLinks struct {
	off    []int
	users  []profile.UserID
	scores []float64
}

// binLinks bins the repository's links by property in two columnar passes:
// count, prefix-sum, fill. withUsers false fills the score arena alone —
// all that deriving cuts reads.
func binLinks(repo *profile.Repository, withUsers bool) *propLinks {
	nP := repo.NumProperties()
	off := make([]int, nP+1)
	repo.EachRow(func(_ profile.UserID, props []profile.PropertyID, _ []float64) {
		for _, p := range props {
			off[p+1]++
		}
	})
	for p := 0; p < nP; p++ {
		off[p+1] += off[p]
	}
	l := &propLinks{off: off, scores: make([]float64, off[nP])}
	if withUsers {
		l.users = make([]profile.UserID, off[nP])
	}
	cur := make([]int, nP)
	copy(cur, off[:nP])
	repo.EachRow(func(u profile.UserID, props []profile.PropertyID, scores []float64) {
		for i, p := range props {
			c := cur[p]
			if l.users != nil {
				l.users[c] = u
			}
			l.scores[c] = scores[i]
			cur[p] = c + 1
		}
	})
	return l
}

// propPartition is the bucketing result for one property's link segment:
// β(p), the per-link bucket assignment (aligned with the segment, -1 when
// the score falls in no bucket) and the per-bucket member counts.
type propPartition struct {
	buckets []bucketing.Bucket
	asg     []int32
	counts  []int
}

// partitionAll resolves β(p) for every property some user holds, across a
// pool of workers goroutines, and with assign also bins each link of the
// property into its bucket. Workers only read the shared link arenas and
// write disjoint result slots, so the output is identical for any worker
// count; the slice is indexed by PropertyID with nil entries for properties
// no user holds.
func partitionAll(links *propLinks, cfg Config, workers int, assign bool) []*propPartition {
	nP := len(links.off) - 1
	results := make([]*propPartition, nP)
	one := func(pid int) {
		a, b := links.off[pid], links.off[pid+1]
		if a == b {
			return
		}
		scores := links.scores[a:b]
		part := &propPartition{buckets: cfg.bucketsFor(profile.PropertyID(pid), scores)}
		if assign {
			part.asg = make([]int32, len(scores))
			part.counts = make([]int, len(part.buckets))
			for i, s := range scores {
				bi := bucketing.Assign(part.buckets, s)
				part.asg[i] = int32(bi)
				if bi >= 0 {
					part.counts[bi]++
				}
			}
		}
		results[pid] = part
	}
	if workers > nP {
		workers = nP
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pid := range work {
				one(pid)
			}
		}()
	}
	for pid := 0; pid < nP; pid++ {
		work <- pid
	}
	close(work)
	wg.Wait()
	return results
}
