package shard

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"podium/internal/client"
	"podium/internal/server"
)

// replicaHarness is a coordinator over replicated httptest-backed shard
// servers: servers[si][ri] is replica ri of shard si, each an independent
// server over the same shard repository.
type replicaHarness struct {
	plan    *Plan
	base    *server.Server
	coord   *Coordinator
	servers [][]*httptest.Server
}

func newReplicaHarness(t *testing.T, users, shards, replicas int) *replicaHarness {
	t.Helper()
	ix, gcfg := buildGlobal(t, users, 5)
	plan, err := NewPlan(ix, gcfg, Options{Shards: shards, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := &replicaHarness{plan: plan}
	scfg := gcfg
	scfg.FixedBuckets = ix.BucketBoundaries()
	specs := make([]string, len(plan.Shards))
	for i, sh := range plan.Shards {
		group := make([]*httptest.Server, replicas)
		urls := make([]string, replicas)
		for r := 0; r < replicas; r++ {
			srv := server.New("shard", sh.Repo, scfg, nil)
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			group[r] = ts
			urls[r] = ts.URL
		}
		h.servers = append(h.servers, group)
		specs[i] = strings.Join(urls, "|")
	}
	h.base = server.New("coordinator", ix.Repo(), gcfg, nil)
	h.coord = NewCoordinator(h.base, specs, CoordinatorOptions{
		Resilience: client.ResilienceOptions{
			Retry: client.RetryOptions{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1},
		},
		Health: HealthOptions{ProbeTimeout: time.Second, MinHedge: 5 * time.Millisecond, MaxHedge: 50 * time.Millisecond, Seed: 7},
		Poll:   10 * time.Millisecond,
	})
	return h
}

// rawSelect posts a select to the coordinator and returns the raw response
// bytes, for bit-identity assertions.
func (h *replicaHarness) rawSelect(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/select", "application/json", strings.NewReader(`{"budget":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestRegistryProbesReplicas: a probe round marks every replica up with its
// population; killing one replica flips it down within FailTolerance rounds
// while the shard roll-up stays healthy.
func TestRegistryProbesReplicas(t *testing.T) {
	h := newReplicaHarness(t, 200, 2, 2)
	reg := h.coord.Registry()
	ctx := context.Background()

	reg.ProbeAll(ctx)
	for si, rows := range reg.Snapshot() {
		for _, rep := range rows {
			if !rep.Healthy || rep.Users == 0 {
				t.Fatalf("shard %d replica %s unhealthy after probe: %+v", si, rep.URL, rep)
			}
		}
	}
	if u := reg.shardUsers(0) + reg.shardUsers(1); u != 200 {
		t.Fatalf("probed shard populations sum to %d, want 200", u)
	}

	h.servers[0][0].Close()
	for i := 0; i < 2; i++ { // FailTolerance defaults to 2
		reg.ProbeAll(ctx)
	}
	rows := reg.Snapshot()[0]
	var dead, alive int
	for _, rep := range rows {
		if rep.Healthy {
			alive++
		} else {
			dead++
			if rep.URL != h.servers[0][0].URL {
				t.Fatalf("wrong replica marked down: %s", rep.URL)
			}
		}
	}
	if dead != 1 || alive != 1 {
		t.Fatalf("replica health after kill: %d dead %d alive, want 1/1", dead, alive)
	}
	if reg.shardUsers(0) == 0 {
		t.Fatal("shard population lost with a replica still alive")
	}
	// The dead replica sorts last but is never excluded.
	ranked := reg.ranked(0)
	if len(ranked) != 2 || ranked[0].url != h.servers[0][1].URL {
		t.Fatalf("ranked does not prefer the live replica: %s first", ranked[0].url)
	}
}

// TestReplicaFailoverBitIdentical: killing one replica of EVERY shard leaves
// selections exact — same bytes as the healthy cluster, degraded:false —
// because siblings hold identical data and the response reports shards, not
// serving replicas.
func TestReplicaFailoverBitIdentical(t *testing.T) {
	h := newReplicaHarness(t, 300, 3, 2)
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)

	healthy := h.rawSelect(t, ts.URL)
	for _, group := range h.servers {
		group[0].Close() // first replica of every shard
	}
	lost := h.rawSelect(t, ts.URL)

	if !bytes.Equal(healthy, lost) {
		t.Fatalf("selection changed under single-replica loss:\nhealthy: %s\nlost:    %s", healthy, lost)
	}
	if bytes.Contains(lost, []byte(`"degraded":true`)) {
		t.Fatal("single-replica loss reported degraded")
	}
}

// TestReplicaGroupDegradedOnlyWhenAllFail: with one shard's full group down
// the response degrades (but succeeds); with every group fully down the
// coordinator 503s with the unified error envelope.
func TestReplicaGroupDegradedOnlyWhenAllFail(t *testing.T) {
	h := newReplicaHarness(t, 200, 2, 2)
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, nil)

	for _, rep := range h.servers[1] {
		rep.Close() // entire group of shard 1
	}
	sel, err := c.Select(client.SelectRequest{Budget: 4})
	if err != nil {
		t.Fatalf("select with one live group must succeed: %v", err)
	}
	if !sel.Degraded {
		t.Fatal("full group loss not reported degraded")
	}

	for _, rep := range h.servers[0] {
		rep.Close()
	}
	if _, err := c.Select(client.SelectRequest{Budget: 4}); err == nil {
		t.Fatal("select succeeded with every replica of every shard down")
	}
}

// TestShardsEndpointReportsReplicas: /api/v1/shards rolls up per-shard
// health and carries the per-replica detail, including the downed replica.
func TestShardsEndpointReportsReplicas(t *testing.T) {
	h := newReplicaHarness(t, 200, 2, 2)
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)
	h.servers[1][1].Close()

	var health []struct {
		URL      string        `json:"url"`
		OK       bool          `json:"ok"`
		Users    int           `json:"users"`
		Epoch    uint64        `json:"epoch"`
		Replicas []ReplicaInfo `json:"replicas"`
	}
	// Two fetches: the second probe round crosses the fail tolerance for
	// the killed replica.
	for i := 0; i < 2; i++ {
		if err := getJSON(t, ts.URL+"/api/v1/shards", &health); err != nil {
			t.Fatal(err)
		}
	}
	if len(health) != 2 {
		t.Fatalf("health rows = %d, want 2", len(health))
	}
	total := 0
	for si, row := range health {
		if !row.OK {
			t.Fatalf("shard %d unhealthy with a live replica: %+v", si, row)
		}
		if len(row.Replicas) != 2 {
			t.Fatalf("shard %d reports %d replicas, want 2", si, len(row.Replicas))
		}
		total += row.Users
	}
	total0 := 0
	for _, rep := range health[0].Replicas {
		if !rep.Healthy {
			t.Fatalf("healthy replica reported down: %+v", rep)
		}
		total0++
	}
	downed := 0
	for _, rep := range health[1].Replicas {
		if !rep.Healthy {
			downed++
			if rep.URL != h.servers[1][1].URL {
				t.Fatalf("wrong replica reported down: %s", rep.URL)
			}
		}
	}
	if downed != 1 {
		t.Fatalf("shard 1 reports %d downed replicas, want 1", downed)
	}
	if total != 200 {
		t.Fatalf("shard populations sum to %d, want 200", total)
	}
}

// TestCampaignFanoutSurvivesReplicaLoss: campaign creation (non-idempotent,
// failover-only routing) still lands every shard's wave with one replica of
// each group dead.
func TestCampaignFanoutSurvivesReplicaLoss(t *testing.T) {
	h := newReplicaHarness(t, 200, 2, 2)
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)
	for _, group := range h.servers {
		group[0].Close()
	}

	var agg struct {
		Degraded bool `json:"degraded"`
		Accepted int  `json:"accepted"`
		Shards   []struct {
			State   string `json:"state"`
			Replica string `json:"replica"`
		} `json:"shards"`
	}
	if err := postJSON(t, ts.URL+"/api/v1/campaigns", `{"budget":6,"time_scale":0.01,"non_response":0,"decline":0}`, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Degraded {
		t.Fatal("campaign degraded with a live replica per shard")
	}
	if agg.Accepted == 0 {
		t.Fatal("campaign accepted no users")
	}
	for si, row := range agg.Shards {
		if row.State != "converged" && row.State != "exhausted" {
			t.Fatalf("shard %d campaign not terminal: %+v", si, row)
		}
		if row.Replica != h.servers[si][1].URL {
			t.Fatalf("shard %d wave served by %q, want surviving replica %q", si, row.Replica, h.servers[si][1].URL)
		}
	}
}
