// Observability-overhead benchmark: the same snapshot server driven with
// request instrumentation enabled (the default) and disabled
// (SetObsEnabled(false), which skips the counter/histogram wrapper and the
// engine stage timers entirely). The acceptance gate is that instrumentation
// costs < 2% on both uncached select latency and read throughput.
//
// Two workloads isolate the two instrumented paths:
//
//   - selects with per-request priority feedback, which never repeat, so the
//     select cache misses and the greedy engine (stage timers included) runs
//     every time;
//   - the read-heavy dashboard mix of the shared serving drive (server.go)
//     at 0% writes, which exercises the per-route counter/histogram wrapper
//     at maximum request rate (status/groups/distribution are the cheapest
//     handlers, so the per-request overhead is proportionally largest
//     there).
//
// Both modes are measured interleaved, best-of-Trials, so a background
// hiccup hits one trial of one mode rather than biasing a whole side.
package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"podium/internal/groups"
	"podium/internal/server"
)

// ObsConfig parameterizes the observability-overhead benchmark.
type ObsConfig struct {
	Seed int64
	// Users / Props / PropsPerUser shape the population (server-suite
	// defaults: 2000 / 2500 / 8).
	Users, Props, PropsPerUser int
	// Clients drives the read-throughput phase (default 8).
	Clients int
	// Duration is the measured read drive per trial per mode (default 1s).
	Duration time.Duration
	// SelectIters is the number of uncached selects per trial per mode
	// (default 60).
	SelectIters int
	// Trials is the interleaved repetition count; each mode's result is its
	// best trial (default 3).
	Trials int
	Budget int
	// Dir holds the repository log; a temp dir is created when empty.
	Dir string
}

// ObsRunStats is one mode's best-trial measurements.
type ObsRunStats struct {
	SelectP50Ms   float64 `json:"select_p50_ms"`
	SelectMeanMs  float64 `json:"select_mean_ms"`
	ReadQPS       float64 `json:"read_qps"`
	SelectSamples int     `json:"select_samples"`
	ReadOps       int     `json:"read_ops"`
}

// ObsReport is the machine-readable result, serialized to BENCH_obs.json.
// MaxOverheadFrac is the acceptance headline: the worse of the select-latency
// and read-QPS overhead fractions, floored at zero (instrumentation measuring
// faster than baseline is noise, not negative cost).
type ObsReport struct {
	Suite       string      `json:"suite"`
	Workload    string      `json:"workload"`
	Users       int         `json:"users"`
	Properties  int         `json:"properties"`
	Groups      int         `json:"groups"`
	Clients     int         `json:"clients"`
	Budget      int         `json:"budget"`
	Seed        int64       `json:"seed"`
	NumCPU      int         `json:"num_cpu"`
	Trials      int         `json:"trials"`
	SelectIters int         `json:"select_iters"`
	DurationSec float64     `json:"duration_sec"`
	Enabled     ObsRunStats `json:"enabled"`
	Disabled    ObsRunStats `json:"disabled"`
	// SelectOverheadFrac = enabled mean / disabled mean − 1.
	SelectOverheadFrac float64 `json:"select_overhead_frac"`
	// ReadOverheadFrac = 1 − enabled QPS / disabled QPS.
	ReadOverheadFrac float64 `json:"read_overhead_frac"`
	MaxOverheadFrac  float64 `json:"max_overhead_frac"`
	// MetricFamilies counts the families the /api/v1/metrics scrape exposed
	// after the instrumented runs — a sanity check that the enabled mode
	// actually recorded.
	MetricFamilies int `json:"metric_families"`
}

func (c ObsConfig) withDefaults() ObsConfig {
	if c.Users <= 0 {
		c.Users = 2000
	}
	if c.Props <= 0 {
		c.Props = 2500
	}
	if c.PropsPerUser <= 0 {
		c.PropsPerUser = 8
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.SelectIters <= 0 {
		c.SelectIters = 60
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Budget <= 0 {
		c.Budget = 8
	}
	return c
}

// obsSelects runs iters uncached selections and returns per-request
// latencies in seconds. Select number *seq of the run carries the priority
// feedback obsPriority(*seq) — a list no earlier select sent, across
// warm-up, trials and modes — so the select cache answers none of them and
// every timed request runs the greedy engine.
func obsSelects(h http.Handler, cfg ObsConfig, numGroups int, seq *int, iters int) []float64 {
	lat := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		body := fmt.Sprintf(`{"budget":%d,"feedback":{"priority":%s}}`,
			cfg.Budget, obsPriority(*seq, numGroups))
		*seq++
		req := httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, time.Since(t0).Seconds())
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("obs bench: select -> %d: %s", rec.Code, rec.Body.String()))
		}
	}
	return lat
}

// obsPriority renders seq's digits in base numGroups, most significant
// first, as a JSON list of group IDs: distinct seqs give distinct lists.
func obsPriority(seq, numGroups int) string {
	ids := []string{strconv.Itoa(seq % numGroups)}
	for seq /= numGroups; seq > 0; seq /= numGroups {
		ids = append([]string{strconv.Itoa(seq % numGroups)}, ids...)
	}
	return "[" + strings.Join(ids, ",") + "]"
}

func meanMs(lat []float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	return sum / float64(len(lat)) * 1000
}

// RunObsSuite measures instrumentation overhead and returns the rendered
// table plus the JSON report.
func RunObsSuite(cfg ObsConfig) (*Table, *ObsReport, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "podium-bench-obs")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
	}

	scfg := ServerConfig{
		Seed: cfg.Seed, Users: cfg.Users, Props: cfg.Props,
		PropsPerUser: cfg.PropsPerUser, Clients: cfg.Clients,
		Duration: cfg.Duration, Budget: cfg.Budget,
	}.withDefaults()
	scfg.WritePct = 0 // read-only drive isolates the request wrapper's cost

	path := filepath.Join(dir, "obs.plog")
	if err := sparseLog(path, scfg); err != nil {
		return nil, nil, err
	}
	srv, err := server.NewMutableOpts("bench-obs", path, groups.Config{K: 3}, nil,
		server.MutableOptions{BatchWindow: 10 * time.Millisecond})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	numGroups := srv.Snapshot().Index().NumGroups()

	// Warm both paths (JIT-free, but page cache, memo tables and the first
	// histogram allocations should not land in a measured trial).
	seq := 0
	for _, on := range []bool{true, false} {
		srv.SetObsEnabled(on)
		obsSelects(srv, cfg, numGroups, &seq, 4)
	}

	best := map[bool]*ObsRunStats{true: {}, false: {}}
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, on := range []bool{false, true} {
			srv.SetObsEnabled(on)
			lat := obsSelects(srv, cfg, numGroups, &seq, cfg.SelectIters)
			b := best[on]
			if m := meanMs(lat); b.SelectSamples == 0 || m < b.SelectMeanMs {
				b.SelectMeanMs = m
				b.SelectP50Ms = percentileMs(lat, 0.50)
				b.SelectSamples = len(lat)
			}
			reads, _, elapsed := driveClients(srv, scfg)
			if qps := float64(len(reads)) / elapsed; qps > b.ReadQPS {
				b.ReadQPS = qps
				b.ReadOps = len(reads)
			}
		}
	}
	srv.SetObsEnabled(true)

	// Sanity: the instrumented runs must be visible on the scrape.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, nil, fmt.Errorf("obs bench: metrics scrape -> %d", rec.Code)
	}
	families := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}

	en, dis := best[true], best[false]
	rep := &ObsReport{
		Suite:       "obs",
		Workload:    "uncached feedback selects + read-only dashboard mix (0% writes)",
		Users:       cfg.Users,
		Properties:  srv.Repository().NumProperties(),
		Groups:      numGroups,
		Clients:     cfg.Clients,
		Budget:      cfg.Budget,
		Seed:        cfg.Seed,
		NumCPU:      runtime.NumCPU(),
		Trials:      cfg.Trials,
		SelectIters: cfg.SelectIters,
		DurationSec: cfg.Duration.Seconds(),
		Enabled:     *en,
		Disabled:    *dis,
	}
	if dis.SelectMeanMs > 0 {
		rep.SelectOverheadFrac = en.SelectMeanMs/dis.SelectMeanMs - 1
	}
	if dis.ReadQPS > 0 {
		rep.ReadOverheadFrac = 1 - en.ReadQPS/dis.ReadQPS
	}
	rep.MaxOverheadFrac = rep.SelectOverheadFrac
	if rep.ReadOverheadFrac > rep.MaxOverheadFrac {
		rep.MaxOverheadFrac = rep.ReadOverheadFrac
	}
	if rep.MaxOverheadFrac < 0 {
		rep.MaxOverheadFrac = 0
	}
	rep.MetricFamilies = families

	const (
		mSelMean = "Select mean (ms)"
		mSelP50  = "Select p50 (ms)"
		mQPS     = "Read QPS"
	)
	t := &Table{
		Title:   fmt.Sprintf("Observability overhead, %d clients (|U|=%d, |G|=%d)", cfg.Clients, cfg.Users, numGroups),
		Metrics: []string{mSelMean, mSelP50, mQPS},
		Rows: []Row{
			{Name: "obs-enabled", Values: map[string]float64{
				mSelMean: en.SelectMeanMs, mSelP50: en.SelectP50Ms, mQPS: en.ReadQPS}},
			{Name: "obs-disabled", Values: map[string]float64{
				mSelMean: dis.SelectMeanMs, mSelP50: dis.SelectP50Ms, mQPS: dis.ReadQPS}},
		},
	}
	return t, rep, nil
}
