// Fault-tolerance benchmark: what the hardened serving layer costs when
// nothing goes wrong, what it delivers when things do, and how admission
// control behaves at writer overload. Three phases:
//
//  1. Hardening overhead — the shared in-process serving drive (server.go),
//     against the bare snapshot server and against Server.Hardened. The
//     acceptance headline: the middleware must cost < 5% read QPS.
//  2. Fault sweep — resilient clients drive the hardened server over real
//     sockets through the deterministic injector at increasing fault rates;
//     read QPS and tail latency quantify graceful degradation.
//  3. Overload shedding — a deliberately tiny mutation queue under write
//     spam: mutating requests shed with 429 while concurrent reads must all
//     succeed from the last published snapshot.
//
// Phases 1 and 3 run in-process (handler invocations, no sockets) like the
// shared drive; phase 2 must cross real connections because Reset and
// Truncate faults abort them — numbers are therefore comparable within a
// phase, not across phases.
package experiments

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"podium/internal/client"
	"podium/internal/faults"
	"podium/internal/groups"
	"podium/internal/server"
)

// FaultsConfig parameterizes the fault-tolerance benchmark.
type FaultsConfig struct {
	Seed int64
	// Users / Props / PropsPerUser shape the population (defaults 1200/1500/8;
	// smaller than the shared drive's because the sweep runs several servers).
	Users, Props, PropsPerUser int
	// Clients is the closed-loop client count (default 8).
	Clients int
	// Duration is the measured run length per phase configuration (default 2s).
	Duration time.Duration
	// WritePct is the percentage of mutating operations (default 10).
	WritePct int
	Budget   int
	// Rates are the total injected fault rates to sweep (default 0, 1%, 5%),
	// split 40/30/30 across latency, reset and truncate faults.
	Rates []float64
	// Dir holds the repository logs; a temp dir is created when empty.
	Dir string
}

func (c FaultsConfig) withDefaults() FaultsConfig {
	if c.Users <= 0 {
		c.Users = 1200
	}
	if c.Props <= 0 {
		c.Props = 1500
	}
	if c.PropsPerUser <= 0 {
		c.PropsPerUser = 8
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.WritePct <= 0 {
		c.WritePct = 10
	}
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0, 0.01, 0.05}
	}
	return c
}

// serverConfig adapts the faults config to the shared drive's generator and
// driver (server.go).
func (c FaultsConfig) serverConfig() ServerConfig {
	return ServerConfig{
		Seed: c.Seed, Users: c.Users, Props: c.Props, PropsPerUser: c.PropsPerUser,
		Clients: c.Clients, Duration: c.Duration, WritePct: c.WritePct, Budget: c.Budget,
	}.withDefaults()
}

// FaultsOverheadStats compares the bare server with the hardened middleware
// on a fault-free workload. Ratio is hardened/plain read QPS.
type FaultsOverheadStats struct {
	PlainReadQPS    float64 `json:"plain_read_qps"`
	HardenedReadQPS float64 `json:"hardened_read_qps"`
	Ratio           float64 `json:"ratio"`
}

// FaultsSweepPoint is one injected-fault-rate configuration of phase 2.
type FaultsSweepPoint struct {
	Rate         float64 `json:"rate"`
	ReadOps      int     `json:"read_ops"`
	WriteOps     int     `json:"write_ops"`
	ReadQPS      float64 `json:"read_qps"`
	WriteQPS     float64 `json:"write_qps"`
	ReadP50Ms    float64 `json:"read_p50_ms"`
	ReadP99Ms    float64 `json:"read_p99_ms"`
	WriteP99Ms   float64 `json:"write_p99_ms"`
	ClientErrors int     `json:"client_errors"`
	Latencies    uint64  `json:"injected_latencies"`
	Resets       uint64  `json:"injected_resets"`
	Truncations  uint64  `json:"injected_truncations"`
}

// FaultsOverloadStats reports phase 3: admission control at writer overload.
type FaultsOverloadStats struct {
	Writes     int     `json:"writes"`
	Shed       int     `json:"shed"`
	ShedRate   float64 `json:"shed_rate"`
	Reads      int     `json:"reads"`
	ReadErrors int     `json:"read_errors"`
}

// FaultsReport is the machine-readable result, serialized to BENCH_faults.json.
type FaultsReport struct {
	Suite       string              `json:"suite"`
	Workload    string              `json:"workload"`
	Users       int                 `json:"users"`
	Clients     int                 `json:"clients"`
	WritePct    int                 `json:"write_pct"`
	Budget      int                 `json:"budget"`
	Seed        int64               `json:"seed"`
	NumCPU      int                 `json:"num_cpu"`
	DurationSec float64             `json:"duration_sec"`
	Overhead    FaultsOverheadStats `json:"overhead"`
	Sweep       []FaultsSweepPoint  `json:"sweep"`
	Overload    FaultsOverloadStats `json:"overload"`
}

func quietLogf(string, ...interface{}) {}

// RunFaultsSuite benchmarks the hardened serving layer and returns the
// rendered table plus the JSON report.
func RunFaultsSuite(cfg FaultsConfig) (*Table, *FaultsReport, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "podium-bench-faults")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
	}
	gcfg := groups.Config{K: 3}
	scfg := cfg.serverConfig()

	// Phase 1: hardening overhead, in-process, fault-free. Fresh identical
	// logs for both runs so neither inherits the other's accumulated writes.
	newServer := func(name string) (*server.MutableServer, error) {
		path := filepath.Join(dir, name+".plog")
		if err := sparseLog(path, scfg); err != nil {
			return nil, err
		}
		return server.NewMutableOpts("bench", path, gcfg, nil,
			server.MutableOptions{BatchWindow: scfg.BatchWindow})
	}
	plain, err := newServer("plain")
	if err != nil {
		return nil, nil, err
	}
	plainReads, _, plainElapsed := driveClients(plain, scfg)
	plainStats := runStats("plain", plainReads, nil, plainElapsed)
	if err := plain.Close(); err != nil {
		return nil, nil, err
	}
	hard, err := newServer("hardened")
	if err != nil {
		return nil, nil, err
	}
	hardReads, _, hardElapsed := driveClients(hard.Hardened(server.HardenOptions{Logf: quietLogf}), scfg)
	hardStats := runStats("hardened", hardReads, nil, hardElapsed)
	if err := hard.Close(); err != nil {
		return nil, nil, err
	}
	overhead := FaultsOverheadStats{
		PlainReadQPS:    plainStats.ReadQPS,
		HardenedReadQPS: hardStats.ReadQPS,
	}
	if overhead.PlainReadQPS > 0 {
		overhead.Ratio = overhead.HardenedReadQPS / overhead.PlainReadQPS
	}

	// Phase 2: the fault sweep, over real sockets.
	var sweep []FaultsSweepPoint
	for i, rate := range cfg.Rates {
		ms, err := newServer(fmt.Sprintf("sweep-%d", i))
		if err != nil {
			return nil, nil, err
		}
		inj := faults.New(faults.Config{
			Seed: cfg.Seed + int64(i), LatencyMs: 2,
			Latency: 0.4 * rate, Reset: 0.3 * rate, Truncate: 0.3 * rate,
		})
		ts := httptest.NewServer(inj.Wrap(ms.Hardened(server.HardenOptions{Logf: quietLogf})))
		readLat, writeLat, errs, elapsed := driveResilientClients(ts.URL, cfg)
		ts.Close()
		if err := ms.Close(); err != nil {
			return nil, nil, err
		}
		counts := inj.Counts()
		sweep = append(sweep, FaultsSweepPoint{
			Rate:         rate,
			ReadOps:      len(readLat),
			WriteOps:     len(writeLat),
			ReadQPS:      float64(len(readLat)) / elapsed,
			WriteQPS:     float64(len(writeLat)) / elapsed,
			ReadP50Ms:    percentileMs(readLat, 0.50),
			ReadP99Ms:    percentileMs(readLat, 0.99),
			WriteP99Ms:   percentileMs(writeLat, 0.99),
			ClientErrors: errs,
			Latencies:    counts.Latency,
			Resets:       counts.Reset,
			Truncations:  counts.Truncate,
		})
	}

	// Phase 3: overload shedding against a deliberately starved writer.
	overload, err := runOverloadPhase(dir, cfg, gcfg)
	if err != nil {
		return nil, nil, err
	}

	rep := &FaultsReport{
		Suite: "faults",
		Workload: fmt.Sprintf("mixed %d%%-write; faults split 40/30/30 latency/reset/truncate; resilient clients",
			cfg.WritePct),
		Users:       cfg.Users,
		Clients:     cfg.Clients,
		WritePct:    cfg.WritePct,
		Budget:      cfg.Budget,
		Seed:        cfg.Seed,
		NumCPU:      runtime.NumCPU(),
		DurationSec: cfg.Duration.Seconds(),
		Overhead:    overhead,
		Sweep:       sweep,
		Overload:    *overload,
	}

	const (
		mReadQPS  = "Read QPS"
		mReadP50  = "Read p50 (ms)"
		mReadP99  = "Read p99 (ms)"
		mWriteQPS = "Write QPS"
		mErrors   = "Client errors"
	)
	t := &Table{
		Title: fmt.Sprintf("Hardened serving under injected faults, %d clients (|U|=%d; in-process rows vs socket rows not comparable)",
			cfg.Clients, cfg.Users),
		Metrics: []string{mReadQPS, mReadP50, mReadP99, mWriteQPS, mErrors},
	}
	t.Rows = append(t.Rows,
		Row{Name: "in-process plain", Values: map[string]float64{
			mReadQPS: plainStats.ReadQPS, mReadP50: plainStats.ReadP50Ms, mReadP99: plainStats.ReadP99Ms,
		}},
		Row{Name: "in-process hardened", Values: map[string]float64{
			mReadQPS: hardStats.ReadQPS, mReadP50: hardStats.ReadP50Ms, mReadP99: hardStats.ReadP99Ms,
		}},
	)
	for _, pt := range sweep {
		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("socket %.0f%% faults", pt.Rate*100),
			Values: map[string]float64{
				mReadQPS: pt.ReadQPS, mReadP50: pt.ReadP50Ms, mReadP99: pt.ReadP99Ms,
				mWriteQPS: pt.WriteQPS, mErrors: float64(pt.ClientErrors),
			},
		})
	}
	return t, rep, nil
}

// driveResilientClients runs cfg.Clients closed-loop resilient clients
// against the server at baseURL for cfg.Duration. The operation mix mirrors
// the in-process driver: reads dominated by group browsing and status polls
// with occasional selections; writes are score updates with periodic
// sign-ups. Returns read/write latency samples (seconds) and the count of
// requests that failed even through retries.
func driveResilientClients(baseURL string, cfg FaultsConfig) (readLat, writeLat []float64, errs int, elapsed float64) {
	type sample struct {
		lat   float64
		write bool
		err   bool
	}
	perClient := make([][]sample, cfg.Clients)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rc := client.NewResilient(baseURL, nil, client.ResilienceOptions{
				Retry: client.RetryOptions{
					MaxAttempts: 6,
					BaseBackoff: time.Millisecond,
					MaxBackoff:  8 * time.Millisecond,
					Seed:        cfg.Seed*31 + int64(c) + 1,
					// The workload's writes are idempotent (absolute scores,
					// unique names), so at-least-once retries are safe.
					RetryNonIdempotent: true,
				},
			})
			rng := rand.New(rand.NewSource(cfg.Seed*1013 + int64(c)))
			nextUser := 0
			for time.Now().Before(deadline) {
				var err error
				write := rng.Intn(100) < cfg.WritePct
				t0 := time.Now()
				switch {
				case write && rng.Intn(100) < 15:
					nextUser++
					_, _, err = rc.AddUser(fmt.Sprintf("f%d-new-%d", c, nextUser),
						map[string]float64{propLabel(rng.Intn(cfg.Props)): float64(rng.Intn(1001)) / 1000})
				case write:
					err = rc.SetScore(rng.Intn(cfg.Users), propLabel(rng.Intn(cfg.Props)),
						float64(rng.Intn(1001))/1000)
				default:
					switch r := rng.Intn(100); {
					case r < 2:
						_, err = rc.Select(client.SelectRequest{Budget: cfg.Budget})
					case r < 72:
						_, err = rc.Groups(20)
					default:
						_, err = rc.Status()
					}
				}
				perClient[c] = append(perClient[c], sample{time.Since(t0).Seconds(), write, err != nil})
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start).Seconds()
	for _, samples := range perClient {
		for _, s := range samples {
			if s.err {
				errs++
				continue
			}
			if s.write {
				writeLat = append(writeLat, s.lat)
			} else {
				readLat = append(readLat, s.lat)
			}
		}
	}
	return readLat, writeLat, errs, elapsed
}

// runOverloadPhase starves the apply loop (tiny queue, small batches, a
// coalescing window) under write spam and verifies graceful degradation:
// writes shed with 429, reads never fail.
func runOverloadPhase(dir string, cfg FaultsConfig, gcfg groups.Config) (*FaultsOverloadStats, error) {
	path := filepath.Join(dir, "overload.plog")
	if err := sparseLog(path, cfg.serverConfig()); err != nil {
		return nil, err
	}
	ms, err := server.NewMutableOpts("bench", path, gcfg, nil, server.MutableOptions{
		MaxBatch: 8, QueueDepth: 8, BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	h := ms.Hardened(server.HardenOptions{Logf: quietLogf})
	deadline := time.Now().Add(cfg.Duration / 4)

	var writes, shed, reads, readErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2*cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*2027 + int64(w)))
			for time.Now().Before(deadline) {
				body := fmt.Sprintf(`{"user":%d,"label":%q,"score":%g}`,
					rng.Intn(cfg.Users), propLabel(rng.Intn(cfg.Props)), float64(rng.Intn(1001))/1000)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/scores", strings.NewReader(body)))
				writes.Add(1)
				if rec.Code == http.StatusTooManyRequests {
					shed.Add(1)
				} else if rec.Code != http.StatusOK {
					return // surfaces as writes != ok+shed in the report
				}
			}
		}(w)
	}
	for r := 0; r < cfg.Clients/2+1; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/status", nil))
				reads.Add(1)
				if rec.Code != http.StatusOK {
					readErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := ms.Close(); err != nil {
		return nil, err
	}
	st := &FaultsOverloadStats{
		Writes:     int(writes.Load()),
		Shed:       int(shed.Load()),
		Reads:      int(reads.Load()),
		ReadErrors: int(readErrs.Load()),
	}
	if st.Writes > 0 {
		st.ShedRate = float64(st.Shed) / float64(st.Writes)
	}
	return st, nil
}
