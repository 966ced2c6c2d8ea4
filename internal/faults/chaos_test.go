package faults_test

// The chaos suite: hammer a hardened mutable server through the fault
// injector with resilient clients, then audit the wreckage. The invariants —
// the ones the hardened serving layer exists to keep — are:
//
//  1. No lost acknowledged mutation: every write the client saw succeed is in
//     the repository log after shutdown.
//  2. Reads keep serving: resilient status reads never ultimately fail, and
//     the snapshot epochs a reader observes never go backward.
//  3. Clients eventually succeed: every mutation lands despite injected
//     errors, resets and truncations.
//
// (The fourth robustness invariant — campaigns resume bit-identically after a
// kill — is asserted where the journal lives: internal/campaign's WAL and
// pause/resume tests.)
//
// Truncate faults are the deliberately nasty case: the mutation applies but
// the acknowledgment tears, so the client's at-least-once retry duplicates
// it. Unique-per-attempt checking would be wrong; the audit therefore asserts
// presence, not exactly-once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"podium/internal/client"
	"podium/internal/faults"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/server"
	"podium/internal/shard"
	"podium/internal/synth"

	"net/http/httptest"
)

func TestChaosNoLostAcknowledgedMutations(t *testing.T) {
	const (
		writers         = 4
		writesPerWriter = 30
	)
	path := filepath.Join(t.TempDir(), "chaos.plog")
	ms, err := server.NewMutableOpts("chaos", path, groups.Config{K: 3}, nil, server.MutableOptions{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 5, Error: 0.01, Reset: 0.02, Truncate: 0.02})
	ts := httptest.NewServer(inj.Wrap(ms.Hardened(server.HardenOptions{
		Logf: func(string, ...interface{}) {}, // injected panics are expected; keep test output clean
	})))

	newClient := func(seed int64) *client.Client {
		return client.NewResilient(ts.URL, nil, client.ResilienceOptions{
			Retry: client.RetryOptions{
				MaxAttempts: 8,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Seed:        seed,
				// Unique names make the duplicate-on-truncate case benign, so
				// at-least-once is the right contract here.
				RetryNonIdempotent: true,
			},
		})
	}

	// Writers: every acknowledged name goes in the audit ledger.
	var (
		ackedMu sync.Mutex
		acked   []string
	)
	var writeFailures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(int64(100 + w))
			for i := 0; i < writesPerWriter; i++ {
				name := fmt.Sprintf("chaos-w%d-%d", w, i)
				props := map[string]float64{fmt.Sprintf("p%d", i%7): 0.5}
				if _, _, err := c.AddUser(name, props); err != nil {
					writeFailures.Add(1)
					t.Errorf("writer %d: AddUser(%s) never succeeded: %v", w, name, err)
					continue
				}
				ackedMu.Lock()
				acked = append(acked, name)
				ackedMu.Unlock()
			}
		}(w)
	}

	// Readers: resilient status polls must all succeed, and the epochs one
	// connection observes must never regress — graceful degradation means the
	// last published snapshot keeps serving no matter what the writer path or
	// the injector is doing.
	stop := make(chan struct{})
	var readFailures atomic.Int64
	var reads atomic.Int64
	var rwg sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		rwg.Add(1)
		go func(rd int) {
			defer rwg.Done()
			c := newClient(int64(200 + rd))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Status(); err != nil {
					readFailures.Add(1)
					t.Errorf("reader %d: status read failed through retries: %v", rd, err)
				}
				reads.Add(1)
			}
		}(rd)
	}
	// Epoch monotonicity watcher: raw GETs on one connection, skipping the
	// requests the injector mangles (those are availability's problem, not
	// consistency's).
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		hc := &http.Client{}
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := hc.Get(ts.URL + "/api/v1/status")
			if err != nil {
				continue
			}
			var st struct {
				Epoch uint64 `json:"epoch"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				continue
			}
			if st.Epoch < last {
				t.Errorf("epoch went backward: %d after %d", st.Epoch, last)
			}
			last = st.Epoch
		}
	}()

	wg.Wait()
	close(stop)
	rwg.Wait()
	ts.Close()

	// Metrics audit, in-process so the injector can't mangle the scrape: the
	// exposition must parse, request counters must have moved, and the gauges
	// must agree with the server's own accounting — faults may fail requests,
	// but they must never corrupt the metrics pipeline.
	auditMetrics(t, ms)

	if err := ms.Close(); err != nil {
		t.Fatalf("closing server: %v", err)
	}

	if writeFailures.Load() != 0 {
		t.Fatalf("%d writes never succeeded", writeFailures.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	counts := inj.Counts()
	if counts.Error+counts.Reset+counts.Truncate == 0 {
		t.Fatalf("injector fired nothing over %d requests; the chaos run tested fair weather", counts.Requests)
	}
	t.Logf("chaos: %d requests, %d errors, %d resets, %d truncations, %d reads",
		counts.Requests, counts.Error, counts.Reset, counts.Truncate, reads.Load())

	// The audit: reopen the log cold and demand every acknowledged mutation.
	l, err := repolog.Open(path)
	if err != nil {
		t.Fatalf("reopening log: %v", err)
	}
	defer l.Close()
	repo := l.Repository()
	present := make(map[string]bool, repo.NumUsers())
	for u := 0; u < repo.NumUsers(); u++ {
		present[repo.UserName(profile.UserID(u))] = true
	}
	missing := 0
	for _, name := range acked {
		if !present[name] {
			missing++
			t.Errorf("acknowledged mutation lost: user %q not in the log", name)
		}
	}
	if missing == 0 && len(acked) != writers*writesPerWriter {
		t.Fatalf("ledger holds %d acks, want %d", len(acked), writers*writesPerWriter)
	}
}

// auditMetrics scrapes /api/v1/metrics directly off the (unwrapped) server
// and cross-checks it against the server's own stats.
func auditMetrics(t *testing.T, ms *server.MutableServer) {
	t.Helper()
	rec := httptest.NewRecorder()
	ms.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics scrape = %d", rec.Code)
	}

	// Parse the exposition into series → value, demanding well-formed lines.
	series := map[string]float64{}
	for ln, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("metrics line %d not `series value`: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("metrics line %d: bad value: %q", ln+1, line)
		}
		series[fields[0]] = v
	}

	// Requests flowed: the per-route counters saw the chaos traffic.
	totalReqs := 0.0
	for name, v := range series {
		if strings.HasPrefix(name, "podium_http_requests_total{") {
			totalReqs += v
		}
	}
	if totalReqs == 0 {
		t.Error("metrics: no HTTP requests counted under chaos")
	}

	// The epoch gauge agrees with what /api/v1/status reports.
	srec := httptest.NewRecorder()
	ms.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/api/v1/status", nil))
	var st struct {
		Epoch float64 `json:"epoch"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	if g := series["podium_snapshot_epoch"]; g != st.Epoch {
		t.Errorf("metrics epoch gauge = %v, status reports %v", g, st.Epoch)
	}
	if st.Epoch == 0 {
		t.Error("no snapshot was published during the chaos run")
	}

	// The shed counter agrees with ShedStats (both count admission-control
	// rejections at the same site).
	if g := series["podium_http_requests_shed_total"]; g != float64(ms.ShedStats()) {
		t.Errorf("metrics shed counter = %v, ShedStats = %d", g, ms.ShedStats())
	}
}

// TestChaosCoordinatorShardLoss drives the distributed selection invariant
// through the injector: a coordinator over two shard servers, one of them
// faulty and then killed outright mid-stream, must keep answering selects —
// degraded when a shard is unreachable, never an error. Only total shard loss
// may fail a request, and that case is exercised at the end.
func TestChaosCoordinatorShardLoss(t *testing.T) {
	// One partitioned population, exactly as the CLI's -shards mode carves
	// it: shard servers pin the global bucket boundaries so their groups stay
	// restrictions of the coordinator's.
	scfg := synth.ScaleLike(240)
	scfg.Seed = 17
	repo := synth.Generate(scfg).Repo
	gcfg := groups.Config{K: 3}
	ix := groups.Build(repo, gcfg)
	plan, err := shard.NewPlan(ix, gcfg, shard.Options{Shards: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := gcfg
	shardCfg.FixedBuckets = ix.BucketBoundaries()

	// Shard 0 serves clean; shard 1 serves through a hostile injector and is
	// later killed. The coordinator's shard clients retry, so isolated faults
	// heal and only a dead shard degrades the merge.
	s0 := httptest.NewServer(server.New("shard0", plan.Shards[0].Repo, shardCfg, nil))
	defer s0.Close()
	inj := faults.New(faults.Config{Seed: 3, Error: 0.15, Reset: 0.15, Truncate: 0.1})
	s1 := httptest.NewServer(inj.Wrap(server.New("shard1", plan.Shards[1].Repo, shardCfg, nil)))

	base := server.New("coordinator", repo, gcfg, nil)
	shard.NewCoordinator(base, []string{s0.URL, s1.URL}, shard.CoordinatorOptions{
		Resilience: client.ResilienceOptions{
			Retry: client.RetryOptions{
				MaxAttempts: 4,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  5 * time.Millisecond,
				Seed:        21,
				// Selects are read-only POSTs; retrying a torn response is
				// safe and is exactly what the injector provokes.
				RetryNonIdempotent: true,
			},
		},
	})
	front := httptest.NewServer(base.Hardened(server.HardenOptions{
		Logf: func(string, ...interface{}) {},
	}))
	defer front.Close()
	c := client.New(front.URL, nil)

	// Phase 1: hammer selects through the faulty shard. Every request must
	// succeed; a response is either complete (both shards reporting OK) or
	// honestly degraded (failed shard carries an error, selection non-empty).
	degraded, complete := 0, 0
	for i := 0; i < 15; i++ {
		sel, err := c.Select(client.SelectRequest{Budget: 4})
		if err != nil {
			t.Fatalf("select %d errored under shard faults: %v", i, err)
		}
		if len(sel.Users) == 0 || sel.Score <= 0 {
			t.Fatalf("select %d returned empty selection: %d users score %v", i, len(sel.Users), sel.Score)
		}
		if len(sel.Shards) != 2 {
			t.Fatalf("select %d reported %d shards, want 2", i, len(sel.Shards))
		}
		if sel.Degraded {
			degraded++
			for _, sh := range sel.Shards {
				if !sh.OK && sh.Error == "" {
					t.Fatalf("select %d: failed shard carries no error: %+v", i, sh)
				}
			}
		} else {
			complete++
			for _, sh := range sel.Shards {
				if !sh.OK || sh.Winners == 0 {
					t.Fatalf("select %d marked complete with unhealthy shard: %+v", i, sh)
				}
			}
		}
	}
	if complete == 0 {
		t.Fatal("no select survived intact through the retrying fan-out")
	}
	counts := inj.Counts()
	if counts.Error+counts.Reset+counts.Truncate == 0 {
		t.Fatalf("injector fired nothing over %d shard requests; the run tested fair weather", counts.Requests)
	}

	// Phase 2: kill shard 1 mid-stream — in-flight connections are severed,
	// not drained. A select overlapping the kill may still reach shard 1, so
	// it need only succeed. Once the kill has finished, every select must
	// come back degraded yet successful, with the dead shard's failure
	// attributed.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		s1.CloseClientConnections()
		s1.Close()
	}()
	if sel, err := c.Select(client.SelectRequest{Budget: 4}); err != nil {
		t.Fatalf("select overlapping the kill errored: %v", err)
	} else if len(sel.Users) == 0 || sel.Score <= 0 {
		t.Fatalf("select overlapping the kill empty: %d users score %v", len(sel.Users), sel.Score)
	}
	<-killed
	for i := 0; i < 6; i++ {
		sel, err := c.Select(client.SelectRequest{Budget: 4})
		if err != nil {
			t.Fatalf("post-kill select %d errored: %v", i, err)
		}
		if !sel.Degraded {
			t.Fatalf("post-kill select %d not marked degraded: %+v", i, sel.Shards)
		}
		if len(sel.Users) == 0 || sel.Score <= 0 {
			t.Fatalf("post-kill select %d empty: %d users score %v", i, len(sel.Users), sel.Score)
		}
		deadSeen := false
		for _, sh := range sel.Shards {
			if sh.URL == s1.URL && !sh.OK && sh.Error != "" {
				deadSeen = true
			}
		}
		if !deadSeen {
			t.Fatalf("post-kill select %d does not attribute the dead shard: %+v", i, sel.Shards)
		}
	}
	t.Logf("chaos coordinator: %d complete, %d degraded under faults; %d injector requests (%d error, %d reset, %d truncate)",
		complete, degraded, counts.Requests, counts.Error, counts.Reset, counts.Truncate)

	// Phase 3: total loss is the one case that errors.
	s0.Close()
	if _, err := c.Select(client.SelectRequest{Budget: 4}); err == nil {
		t.Fatal("select succeeded with every shard down")
	}
}

// TestChaosReplicaKillBitIdentical drives the replication invariant through
// the injector: a coordinator over two shards, each served by TWO replicas,
// every replica behind a ~5% fault injector. Mid-stream, one replica of
// EVERY shard is killed outright. Because siblings hold identical data and
// the greedy rounds are deterministic, every select must keep succeeding
// with degraded:false and come back byte-identical to the healthy-cluster
// response — replication turns replica loss into a non-event, where PR 8's
// unreplicated coordinator could only degrade.
func TestChaosReplicaKillBitIdentical(t *testing.T) {
	scfg := synth.ScaleLike(240)
	scfg.Seed = 23
	repo := synth.Generate(scfg).Repo
	gcfg := groups.Config{K: 3}
	ix := groups.Build(repo, gcfg)
	plan, err := shard.NewPlan(ix, gcfg, shard.Options{Shards: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := gcfg
	shardCfg.FixedBuckets = ix.BucketBoundaries()

	// Two replicas per shard, each an independent server over the shard's
	// repository, each behind its own ~5% injector (3% errors + 2% resets).
	const replicas = 2
	var (
		injectors []*faults.Injector
		servers   [][]*httptest.Server
		specs     []string
	)
	for si, sh := range plan.Shards {
		group := make([]*httptest.Server, replicas)
		urls := make([]string, replicas)
		for r := 0; r < replicas; r++ {
			inj := faults.New(faults.Config{Seed: int64(41 + si*replicas + r), Error: 0.03, Reset: 0.02})
			injectors = append(injectors, inj)
			srv := server.New(fmt.Sprintf("shard%d-r%d", si, r), sh.Repo, shardCfg, nil)
			group[r] = httptest.NewServer(inj.Wrap(srv))
			defer group[r].Close()
			urls[r] = group[r].URL
		}
		servers = append(servers, group)
		specs = append(specs, strings.Join(urls, "|"))
	}

	base := server.New("coordinator", repo, gcfg, nil)
	shard.NewCoordinator(base, specs, shard.CoordinatorOptions{
		Resilience: client.ResilienceOptions{
			Retry: client.RetryOptions{
				MaxAttempts:        4,
				BaseBackoff:        time.Millisecond,
				MaxBackoff:         5 * time.Millisecond,
				Seed:               21,
				RetryNonIdempotent: true, // selects are read-only POSTs
			},
		},
		Health: shard.HealthOptions{
			ProbeTimeout: time.Second,
			MinHedge:     5 * time.Millisecond,
			MaxHedge:     50 * time.Millisecond,
			Seed:         7,
		},
	})
	front := httptest.NewServer(base.Hardened(server.HardenOptions{
		Logf: func(string, ...interface{}) {},
	}))
	defer front.Close()

	rawSelect := func(i int) []byte {
		t.Helper()
		resp, err := http.Post(front.URL+"/api/v1/select", "application/json",
			strings.NewReader(`{"budget":5}`))
		if err != nil {
			t.Fatalf("select %d: %v", i, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("select %d: reading body: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"degraded":false`) {
			t.Fatalf("select %d degraded under replica-level faults: %s", i, body)
		}
		return body
	}

	// Phase 1: healthy cluster (faults firing, both replicas alive). The
	// first response is the reference; repeats must already be stable.
	reference := rawSelect(0)
	for i := 1; i < 8; i++ {
		if got := rawSelect(i); !bytes.Equal(got, reference) {
			t.Fatalf("healthy select %d diverged from reference:\nref: %s\ngot: %s", i, reference, got)
		}
	}

	// Phase 2: kill one replica of EVERY shard mid-stream, connections
	// severed rather than drained. Selections must stay exact — same bytes,
	// never degraded.
	for _, group := range servers {
		group[0].CloseClientConnections()
		group[0].Close()
	}
	for i := 0; i < 8; i++ {
		if got := rawSelect(100 + i); !bytes.Equal(got, reference) {
			t.Fatalf("post-kill select %d diverged from healthy reference:\nref: %s\ngot: %s", i, reference, got)
		}
	}

	fired := 0
	for _, inj := range injectors {
		c := inj.Counts()
		fired += int(c.Error + c.Reset + c.Truncate)
	}
	if fired == 0 {
		t.Fatal("injectors fired nothing; the run tested fair weather")
	}
	t.Logf("chaos replica-kill: %d faults injected, selections bit-identical across single-replica loss of every shard", fired)
}
