package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"podium/internal/codec"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/synth"
)

// groupCfg is the grouping configuration every podium-server runs with by
// default (-buckets 3).
var groupCfg = groups.Config{K: 3}

// inputsVersion names the layout of the prepared inputs; bump it when the
// generation below changes so a stale cache is never reused.
const inputsVersion = "v2"

// dataset is the prepared input set every workload starts from: one
// synth.ScaleLike population persisted twice, as a format-v2 snapshot image
// (immutable servers) and as a repository log holding one snapshot record
// (the mutable server).
type dataset struct {
	Image string `json:"image"`
	Log   string `json:"log"`
	Users int    `json:"users"`
	Props int    `json:"properties"`
	Links int    `json:"links"`
	Seed  int64  `json:"dataset_seed"`
}

// prepareDataset generates the dataset once per build directory and source
// tree and reuses it afterwards: generation is deterministic in (users, seed)
// and the program's sources, and every run copies the files before a server
// touches them. The image and log are written by the checkout's own synth,
// codec and repolog code, so the cache is keyed by source, the digest of
// the program's sources: a checkout that changes any of them, its file
// formats included, never reads files another source tree wrote. Inputs of
// other source trees are removed.
func prepareDataset(work string, users int, seed int64, source string) (*dataset, error) {
	name := fmt.Sprintf("scale-%s-u%d-s%d-%.16s", inputsVersion, users, seed, source)
	dir := filepath.Join(work, "inputs", name)
	if old, err := filepath.Glob(filepath.Join(work, "inputs", "scale-*")); err == nil {
		for _, o := range old {
			if filepath.Base(o) != name {
				os.RemoveAll(o)
			}
		}
	}
	meta := filepath.Join(dir, "dataset.json")
	if data, err := os.ReadFile(meta); err == nil {
		var ds dataset
		if err := json.Unmarshal(data, &ds); err == nil {
			return &ds, nil
		}
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cfg := synth.ScaleLike(users)
	cfg.Seed = seed
	repo := synth.Generate(cfg).Repo
	if err := codec.WriteImageFile(filepath.Join(tmp, "repo.img"), repo); err != nil {
		return nil, fmt.Errorf("writing image: %w", err)
	}
	l, err := repolog.Open(filepath.Join(tmp, "repo.plog"))
	if err != nil {
		return nil, err
	}
	if err := l.CompactWith(repo); err != nil {
		l.Close()
		return nil, fmt.Errorf("writing log: %w", err)
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	ds := dataset{
		Image: filepath.Join(dir, "repo.img"),
		Log:   filepath.Join(dir, "repo.plog"),
		Users: repo.NumUsers(),
		Props: repo.NumProperties(),
		Links: countLinks(repo),
		Seed:  seed,
	}
	data, err := json.Marshal(ds)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "dataset.json"), data, 0o644); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	return &ds, nil
}

func countLinks(repo *profile.Repository) int {
	_, _, off, _, _ := repo.RawColumns()
	return off[len(off)-1]
}

// loadIndex reads the prepared image and builds the group index exactly as
// an immutable podium-server does at start-up, so group IDs agree.
func (ds *dataset) loadIndex() (*groups.Index, error) {
	repo, err := codec.ReadImageFile(ds.Image)
	if err != nil {
		return nil, err
	}
	ix := groups.Build(repo, groupCfg)
	ix.Freeze()
	return ix, nil
}
