package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"podium/internal/client"
	"podium/internal/faults"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/shard"
	"podium/internal/synth"
)

// The replicated tier of the dist suite: where the in-process cells measure
// the GreeDi merge itself, this tier measures the *wire* — a coordinator over
// httptest-backed shard servers, every replica behind a deterministic ~5%
// fault injector, timed client-side. Three cells tell the replication story:
//
//	R=1 faulty            — the PR-8 baseline: faults heal via retries, but a
//	                        dead shard could only degrade.
//	R=2 faulty            — same faults, hedged fan-out across siblings.
//	R=2 faulty, one
//	replica of EVERY
//	shard killed          — the failure replication exists for. Coverage must
//	                        match the R=1 healthy run exactly (ratio 1.0) and
//	                        no select may report degraded.

// ReplicaRow is one cell of the replicated HTTP tier.
type ReplicaRow struct {
	Users     int     `json:"users"`
	Shards    int     `json:"shards"`
	Replicas  int     `json:"replicas"`
	FaultRate float64 `json:"fault_rate"`
	// ReplicaLoss marks the cell where one replica of every shard is killed
	// before the timed selects.
	ReplicaLoss bool `json:"replica_loss,omitempty"`
	Selects     int  `json:"selects"`
	// Degraded counts selects that reported degraded:true (must be 0 while
	// any replica of every shard survives).
	Degraded int     `json:"degraded"`
	P50Sec   float64 `json:"p50_sec"`
	P99Sec   float64 `json:"p99_sec"`
	Score    float64 `json:"score"`
	// Ratio is Score over the R=1 cell's score — 1.0 means replication (or
	// its absence) cost no coverage.
	Ratio float64 `json:"ratio"`
}

// runReplicatedTier appends the replicated HTTP cells to the report and
// table. Returns the worst-case replica-loss coverage ratio (R=2 with one
// replica of every shard dead, over the R=1 baseline).
func runReplicatedTier(cfg DistConfig, rep *DistReport, t *Table, mSel, mP99, mRat string) error {
	scfg := synth.ScaleLike(cfg.ReplicaUsers)
	scfg.Seed = cfg.Seed
	repo := synth.Generate(scfg).Repo
	gcfg := groups.Config{K: 3}
	ix := groups.Build(repo, gcfg)
	plan, err := shard.NewPlan(ix, gcfg, shard.Options{Shards: cfg.ReplicaShards, Seed: uint64(cfg.Seed)})
	if err != nil {
		return err
	}
	shardCfg := gcfg
	shardCfg.FixedBuckets = ix.BucketBoundaries()

	cells := []struct {
		replicas int
		loss     bool
	}{
		{1, false},
		{2, false},
		{2, true},
	}
	baseline := 0.0
	for _, cell := range cells {
		row, err := runReplicaCell(cfg, plan, repo, gcfg, shardCfg, cell.replicas, cell.loss)
		if err != nil {
			return err
		}
		if baseline == 0 {
			baseline = row.Score
		}
		if baseline > 0 {
			row.Ratio = row.Score / baseline
		}
		rep.Replicated = append(rep.Replicated, row)
		if cell.loss && (rep.ReplicaLossRatio == 0 || row.Ratio < rep.ReplicaLossRatio) {
			rep.ReplicaLossRatio = row.Ratio
		}
		name := fmt.Sprintf("|U|=%d S=%d R=%d faults=%.0f%%", row.Users, row.Shards, row.Replicas, row.FaultRate*100)
		if cell.loss {
			name += " -1 replica/shard"
		}
		t.Rows = append(t.Rows, Row{
			Name:   name,
			Values: map[string]float64{mSel: row.P50Sec, mP99: row.P99Sec, mRat: row.Ratio},
		})
	}
	return nil
}

// runReplicaCell stands up one replicated cluster, optionally kills one
// replica of every shard, and times cfg.ReplicaSelects selects client-side.
func runReplicaCell(cfg DistConfig, plan *shard.Plan, repo *profile.Repository, gcfg, shardCfg groups.Config, replicas int, loss bool) (ReplicaRow, error) {
	row := ReplicaRow{
		Users:       repo.NumUsers(),
		Shards:      len(plan.Shards),
		Replicas:    replicas,
		FaultRate:   cfg.FaultRate,
		ReplicaLoss: loss,
		Selects:     cfg.ReplicaSelects,
	}

	var (
		servers [][]*httptest.Server
		specs   []string
	)
	for si, sh := range plan.Shards {
		group := make([]*httptest.Server, replicas)
		urls := make([]string, replicas)
		for r := 0; r < replicas; r++ {
			inj := faults.New(faults.Config{
				Seed:  cfg.Seed + int64(31+si*replicas+r),
				Error: cfg.FaultRate * 0.6,
				Reset: cfg.FaultRate * 0.4,
			})
			srv := server.New(fmt.Sprintf("bench-shard%d-r%d", si, r), sh.Repo, shardCfg, nil)
			group[r] = httptest.NewServer(inj.Wrap(srv))
			urls[r] = group[r].URL
		}
		servers = append(servers, group)
		specs = append(specs, strings.Join(urls, "|"))
	}
	defer func() {
		for _, group := range servers {
			for _, ts := range group {
				ts.Close()
			}
		}
	}()

	// A dedicated transport, torn down with the cell: riding
	// http.DefaultClient would leave keep-alive connections (and their
	// goroutines) alive long after the cell's servers are gone, perturbing
	// whatever timing-sensitive work runs next in the same process.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	httpc := &http.Client{Transport: tr}

	base := server.New("bench-coordinator", repo, gcfg, nil)
	shard.NewCoordinator(base, specs, shard.CoordinatorOptions{
		HTTPClient: httpc,
		Resilience: client.ResilienceOptions{
			Retry: client.RetryOptions{
				MaxAttempts:        4,
				BaseBackoff:        time.Millisecond,
				MaxBackoff:         10 * time.Millisecond,
				Seed:               cfg.Seed + 1,
				RetryNonIdempotent: true, // selects are read-only POSTs
			},
		},
		Health: shard.HealthOptions{
			ProbeTimeout: time.Second,
			MinHedge:     5 * time.Millisecond,
			MaxHedge:     100 * time.Millisecond,
			Seed:         cfg.Seed + 2,
		},
	})
	front := httptest.NewServer(base)
	defer front.Close()
	c := client.New(front.URL, httpc)

	// One warm-up select populates the health registry and the coordinator's
	// name table before anything is timed or killed.
	if _, err := c.Select(client.SelectRequest{Budget: cfg.Budget}); err != nil {
		return row, fmt.Errorf("experiments: replicated warm-up: %w", err)
	}
	if loss {
		for _, group := range servers {
			group[0].CloseClientConnections()
			group[0].Close()
		}
	}

	lat := make([]float64, 0, cfg.ReplicaSelects)
	for i := 0; i < cfg.ReplicaSelects; i++ {
		start := time.Now()
		sel, err := c.Select(client.SelectRequest{Budget: cfg.Budget})
		if err != nil {
			return row, fmt.Errorf("experiments: replicated select %d (R=%d loss=%v): %w", i, replicas, loss, err)
		}
		lat = append(lat, time.Since(start).Seconds())
		if sel.Degraded {
			row.Degraded++
		}
		row.Score = sel.Score
	}
	sort.Float64s(lat)
	row.P50Sec = lat[len(lat)/2]
	row.P99Sec = lat[(len(lat)*99)/100]
	return row, nil
}
