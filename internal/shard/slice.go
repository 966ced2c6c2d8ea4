package shard

import (
	"fmt"

	"podium/internal/groups"
	"podium/internal/profile"
)

// Carve materializes one shard of a global repository for standalone
// serving: shard id of S under the given partition seed, plus the
// groups.Config a server of that shard must index with — the caller's cfg
// with the *global* bucket boundaries pinned. A shard server that re-derived
// cuts from its local score distribution would disagree with the
// coordinator's merge instance about group membership; pinning keeps every
// shard's groups exact restrictions of the global ones. This is the CLI's
// -shards/-shard-id path, so it derives the boundaries itself with
// groups.Boundaries, which builds no global index.
func Carve(repo *profile.Repository, cfg groups.Config, shards, id int, seed uint64) (*profile.Repository, groups.Config, error) {
	if id < 0 || id >= shards {
		return nil, cfg, fmt.Errorf("shard: id %d outside [0,%d)", id, shards)
	}
	part, err := NewPartition(shards, seed)
	if err != nil {
		return nil, cfg, err
	}
	cfg.FixedBuckets = groups.Boundaries(repo, cfg)
	labels, names, off, props, scores := repo.RawColumns()
	sub, err := sliceRepo(labels, names, off, props, scores, part.Assign(repo.NumUsers())[id])
	if err != nil {
		return nil, cfg, err
	}
	return sub, cfg, nil
}

// sliceRepo materializes one shard's sub-repository from the global columnar
// arrays: a counting pass sizes the shard's offset table, then each selected
// user's row is block-copied into the shard arenas. The label table is shared
// verbatim (property IDs keep their global meaning on every shard — the
// property alignment the fixed-bucket rebuild depends on), so the cost is
// O(shard links), not O(users × properties) and never a per-user re-intern.
// users must be ascending global IDs; the shard's local row r corresponds to
// global user users[r].
func sliceRepo(labels, names []string, off []int, props []profile.PropertyID, scores []float64, users []profile.UserID) (*profile.Repository, error) {
	subOff := make([]int, len(users)+1)
	for i, u := range users {
		if int(u) < 0 || int(u)+1 >= len(off) {
			return nil, fmt.Errorf("shard: user %d outside repository of %d", u, len(off)-1)
		}
		subOff[i+1] = subOff[i] + (off[u+1] - off[u])
	}
	links := subOff[len(users)]
	subNames := make([]string, len(users))
	subProps := make([]profile.PropertyID, links)
	subScores := make([]float64, links)
	for i, u := range users {
		a, b := off[u], off[u+1]
		copy(subProps[subOff[i]:subOff[i+1]], props[a:b])
		copy(subScores[subOff[i]:subOff[i+1]], scores[a:b])
		subNames[i] = names[u]
	}
	return profile.FromColumns(labels, subNames, subOff, subProps, subScores)
}
