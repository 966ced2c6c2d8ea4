// podium-server serves the Podium HTTP API over a profiles JSON file or a
// freshly generated synthetic dataset — the Go counterpart of the paper's
// Flask prototype (Section 7). See GET / for the endpoint list.
//
// The serving layer is hardened: panic recovery, request body caps,
// per-request deadlines, configured listener timeouts, /healthz + /readyz,
// and SIGINT/SIGTERM graceful shutdown that drains in-flight requests,
// pauses campaign orchestrators at a journaled boundary, and flushes the
// mutation apply loop before exit. The -faults flag wraps the handler in a
// deterministic fault injector for chaos drills.
//
// Usage:
//
//	podium-server -in profiles.json -addr :8080
//	podium-server -dataset yelp -users 800
//	podium-server -log repo.plog -queue-depth 1024 -drain-timeout 15s
//	podium-server -faults 0.05   # chaos drill: 5% injected faults
//
// Distributed mode (see internal/shard): each shard server carves its slice
// of the shared dataset, and the coordinator fans selections out and merges:
//
//	podium-server -in profiles.json -shards 2 -shard-id 0 -addr :8081
//	podium-server -in profiles.json -shards 2 -shard-id 1 -addr :8082
//	podium-server -in profiles.json -coordinator http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Replicated shards (R servers per shard, "|"-joined): the coordinator
// health-probes every replica, routes to the healthiest fresh one, fails
// over on error, and hedges slow calls to a sibling:
//
//	podium-server -in profiles.json -coordinator 'http://127.0.0.1:8081|http://127.0.0.1:9081,http://127.0.0.1:8082|http://127.0.0.1:9082'
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"podium/internal/client"
	"podium/internal/codec"
	"podium/internal/faults"
	"podium/internal/groups"
	"podium/internal/load"
	"podium/internal/obs"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/shard"
	"podium/internal/synth"
)

func defaultConfigs() []server.NamedConfig {
	return []server.NamedConfig{
		{
			Name:        "default",
			Description: "LBS weights, Single coverage, budget 8 — the paper's default configuration",
			Budget:      8, Weights: "LBS", Coverage: "Single",
		},
		{
			Name:        "eccentric",
			Description: "Iden weights: maximize the number of covered groups, favoring eccentric users",
			Budget:      8, Weights: "Iden", Coverage: "Single",
		},
	}
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		in          = flag.String("in", "", "profiles file: JSON, binary or repository log (overrides -dataset); a repository log is served with the bucket cuts it committed")
		logPath     = flag.String("log", "", "repository log path: serve a MUTABLE repository backed by this log (POST /api/v1/users, /api/v1/scores)")
		dataset     = flag.String("dataset", "tripadvisor", "generator preset when no -in: tripadvisor | yelp")
		snapImage   = flag.String("snapshot-image", "", "format-v2 binary snapshot image path: load the repository from it when present (near-instant restart), else persist one after the usual -in/-dataset load (immutable mode only; not from a repository log that committed bucket cuts, which an image cannot hold)")
		users       = flag.Int("users", 500, "generated user count when no -in")
		buckets     = flag.Int("buckets", 3, "score buckets per property")
		batchWindow = flag.Duration("batch-window", 0, "mutable server: how long the writer waits for more mutations to coalesce (0 = drain whatever is queued)")
		batchMax    = flag.Int("batch-max", 256, "mutable server: max mutations per published snapshot")
		queueDepth  = flag.Int("queue-depth", 0, "mutable server: apply-loop queue bound; full queue sheds mutations with 429 (0 = 4×batch-max)")
		retryAfter  = flag.Duration("retry-after", time.Second, "mutable server: backoff advertised on shed (429) mutations")
		campaignDir = flag.String("campaign-dir", "", "journal campaigns as WAL files in this directory (empty = in-memory campaigns)")
		selCache    = flag.Bool("select-cache", true, "cross-epoch watermark-keyed select cache: serve repeat selections from pre-marshaled responses until a selection-relevant write lands (false = compute every select)")

		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (negative = none)")
		maxBody      = flag.Int64("max-body", 8<<20, "request body cap in bytes (negative = none)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "http.Server read timeout (negative = none)")
		writeTimeout = flag.Duration("write-timeout", 60*time.Second, "http.Server write timeout (negative = none)")
		idleTimeout  = flag.Duration("idle-timeout", 120*time.Second, "http.Server idle timeout (negative = none)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		faultsSpec   = flag.String("faults", "", `inject faults: a rate ("0.05") or "error=0.02,reset=0.01,truncate=0.01,latency=0.05,latency_ms=3,seed=7"`)
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (unauthenticated; off by default)")

		coordinator   = flag.String("coordinator", "", `comma-separated shard replica groups: serve as the distributed coordinator, fanning selections/campaigns out and merging (GreeDi round 2 runs here over the local -in/-dataset global repository). Each group is one shard's replica set, URLs joined by "|": "http://a:8081|http://b:8081,http://c:8082|http://d:8082" is two shards, two replicas each`)
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "coordinator: replica health probe cadence (jittered ±25%)")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "coordinator: per-replica probe deadline")
		failTolerance = flag.Int("fail-tolerance", 2, "coordinator: consecutive probe/call failures before a replica is marked down")
		hedgeQuantile = flag.Float64("hedge-quantile", 0.9, "coordinator: latency quantile of recent calls after which a hedged request goes to a sibling replica")
		maxHedge      = flag.Duration("max-hedge", 500*time.Millisecond, "coordinator: hedge deadline ceiling (also used before latency history exists)")
		shardCount    = flag.Int("shards", 0, "serve one shard of the -in/-dataset repository: total shard count S (requires -shard-id)")
		shardID       = flag.Int("shard-id", -1, "which shard of -shards this server holds")
		shardSeed     = flag.Uint64("shard-seed", 0, "consistent-hash partition seed; every shard and the coordinator's planner must agree on it")
	)
	flag.Parse()

	configs := defaultConfigs()
	gcfg := groups.Config{K: *buckets}

	if (*shardCount > 0 || *coordinator != "") && *logPath != "" {
		log.Fatalf("podium-server: -shards and -coordinator require an immutable repository (drop -log)")
	}
	if *shardCount > 0 && (*shardID < 0 || *shardID >= *shardCount) {
		log.Fatalf("podium-server: -shard-id must be in [0,%d)", *shardCount)
	}

	// Every mode converges on (srv, closer): the server whose route table
	// serves, hardened, and the shutdown hook that runs after the listener
	// drains. A coordinator registers its endpoints in srv's table.
	var srv *server.Server
	closer := func() {}

	if *logPath != "" {
		ms, err := server.NewMutableOpts(*logPath, *logPath, gcfg, configs, server.MutableOptions{
			BatchWindow: *batchWindow,
			MaxBatch:    *batchMax,
			QueueDepth:  *queueDepth,
			RetryAfter:  *retryAfter,
		})
		if err != nil {
			log.Fatalf("podium-server: %v", err)
		}
		srv = ms.Server
		closer = func() {
			// Drain order: campaigns pause at a journaled boundary, then the
			// apply loop flushes its queued batch and the repolog closes.
			ms.PauseCampaigns()
			if err := ms.Close(); err != nil {
				log.Printf("podium-server: closing repository log: %v", err)
			}
		}
		fmt.Printf("podium-server: mutable repository %s — %d users\n",
			*logPath, ms.Repository().NumUsers())
	} else {
		var repo *profile.Repository
		var name, format string
		loadStart := time.Now()
		if *snapImage != "" {
			r, err := codec.ReadImageFile(*snapImage)
			switch {
			case err == nil:
				repo, name, format = r, *snapImage, "image"
			case errors.Is(err, os.ErrNotExist):
				// First boot: fall through and persist the image below.
			default:
				log.Printf("podium-server: snapshot image %s: %v — falling back to -in/-dataset", *snapImage, err)
			}
		}
		if repo == nil && *in != "" {
			// A repository log carries the bucket cuts its writer's index
			// used; pinning them serves that writer's groups and panels
			// (other formats carry none, and Build derives cuts).
			var err error
			repo, gcfg.FixedBuckets, err = load.Repository(*in)
			if err != nil {
				log.Fatalf("podium-server: %v", err)
			}
			name, format = *in, "file"
		}
		if repo == nil {
			var cfg synth.Config
			switch *dataset {
			case "tripadvisor":
				cfg = synth.TripAdvisorLike(*users)
			case "yelp":
				cfg = synth.YelpLike(*users)
			default:
				log.Fatalf("podium-server: unknown dataset %q", *dataset)
			}
			repo = synth.Generate(cfg).Repo
			name, format = cfg.Name, "synth"
		}
		loadDur := time.Since(loadStart)
		if *snapImage != "" && format != "image" {
			if len(gcfg.FixedBuckets) > 0 {
				// An image holds no bucket cuts: a restart from it would
				// derive its own and serve other groups than the log's.
				log.Printf("podium-server: not writing snapshot image %s: it cannot hold the bucket cuts %s committed", *snapImage, *in)
			} else if err := codec.WriteImageFile(*snapImage, repo); err != nil {
				log.Printf("podium-server: persisting snapshot image %s: %v", *snapImage, err)
			} else {
				fmt.Printf("podium-server: wrote snapshot image %s for fast restarts\n", *snapImage)
			}
		}
		if *shardCount > 0 {
			sub, scfg, err := shard.Carve(repo, gcfg, *shardCount, *shardID, *shardSeed)
			if err != nil {
				log.Fatalf("podium-server: %v", err)
			}
			repo, gcfg = sub, scfg
			name = fmt.Sprintf("%s#%d/%d", name, *shardID, *shardCount)
			fmt.Printf("podium-server: serving shard %d of %d (seed %d) — %d users\n",
				*shardID, *shardCount, *shardSeed, repo.NumUsers())
		}
		srv = server.New(name, repo, gcfg, configs)
		srv.RecordRepositoryLoad(format, loadDur)
		closer = srv.PauseCampaigns
		fmt.Printf("podium-server: %s — %d users, %d properties (loaded via %s in %s)\n",
			name, repo.NumUsers(), repo.NumProperties(), format, loadDur.Round(time.Millisecond))
	}
	srv.SetCampaignDir(*campaignDir)
	srv.SetSelectCacheEnabled(*selCache)
	if *pprofOn {
		srv.EnablePprof()
		fmt.Println("podium-server: pprof mounted at /debug/pprof/")
	}

	if *coordinator != "" {
		co := shard.NewCoordinator(srv, strings.Split(*coordinator, ","), shard.CoordinatorOptions{
			Resilience: client.ResilienceOptions{
				Breaker: &client.BreakerOptions{},
				Metrics: obs.NewClientMetrics(srv.Metrics()),
			},
			Health: shard.HealthOptions{
				ProbeInterval: *probeInterval,
				ProbeTimeout:  *probeTimeout,
				FailTolerance: *failTolerance,
				HedgeQuantile: *hedgeQuantile,
				MaxHedge:      *maxHedge,
			},
		})
		co.Registry().Start()
		base := closer
		closer = func() { co.Registry().Stop(); base() }
		fmt.Printf("podium-server: COORDINATOR over %d shards: %v\n",
			len(co.ShardURLs()), co.ShardURLs())
	}
	handler := srv.Hardened(server.HardenOptions{
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBody,
	})
	if *faultsSpec != "" {
		cfg, err := faults.ParseSpec(*faultsSpec)
		if err != nil {
			log.Fatalf("podium-server: %v", err)
		}
		fmt.Printf("podium-server: CHAOS MODE — injecting faults at %.1f%% (%+v)\n",
			cfg.Total()*100, cfg)
		handler = faults.New(cfg).Wrap(handler)
	}

	err := server.Run(*addr, handler, server.RunOptions{
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		DrainTimeout: *drainTimeout,
		OnReady: func(a net.Addr) {
			fmt.Printf("podium-server: listening on http://%s\n", a)
		},
		// Flip /readyz to 503 the moment shutdown starts, so load balancers
		// stop routing here while in-flight requests drain.
		OnDrain: srv.StartDrain,
	})
	closer()
	if err != nil {
		log.Fatalf("podium-server: %v", err)
	}
	fmt.Println("podium-server: drained cleanly")
	os.Exit(0)
}
