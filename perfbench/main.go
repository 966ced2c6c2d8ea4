// Command perfbench is Podium's repository benchmark. It builds nothing
// itself: run.sh builds podium-server from the checkout and this program,
// then runs one workload against the server over loopback HTTP.
//
//	bash perfbench/run.sh --workload refine --seed 1 --seconds 10 --trace 0
//
// Workloads (one 100K-user synth.ScaleLike dataset, generated once per build
// directory):
//
//	refine   an analyst's refinement session: closed-loop feedback selects
//	live     default selects beside an open-loop stream of profile writes
//	cluster  rule-mix selects through a coordinator over four shard servers
//
// With --trace 0 the last output line carries the end-to-end metrics of the
// HTTP run; with --trace 1 it carries the per-layer metrics of a replay that
// calls each layer's public Go function under spans (see README.md). The
// line before it is a JSON report with the environment, every metric's
// sample count and the check outcomes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"podium/internal/groups"
	"podium/internal/stats"
)

// The dataset every workload runs on: datasetUsers users of
// synth.ScaleLike drawn with datasetSeed.
const (
	datasetUsers = 100000
	datasetSeed  = 7
)

// setupRepeats is how many set-ups a run times; setup_s is their median.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	work     string
	bin      string
	clients  int
	// selectors is how many closed-loop select clients the workload runs.
	selectors int
	ds        *dataset
	cal       *calibration
}

func main() {
	o := &options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "refine | live | cluster")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: request streams and write streams derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced replay, 0 = end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.work, "work", ".bench_build", "build and scratch directory under the checkout")
	flag.StringVar(&o.bin, "server", ".bench_build/bin/podium-server", "podium-server binary")
	flag.Parse()
	o.trace = trace == 1
	// At most nproc concurrent connections in total, two where available.
	o.clients = 2
	if runtime.NumCPU() < 2 {
		o.clients = 1
	}
	// refine runs a client per connection. live reads on one connection and
	// writes on the other. cluster runs one: two clients whose selects each
	// fan out and then merge fall into step or out of step with each other
	// and stay so for seconds at a time, and the two states differ by a
	// third in latency (README.md).
	o.selectors = 1
	if o.workload == "refine" {
		o.selectors = o.clients
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is the detail line printed before the result.
type report struct {
	Env     environment       `json:"env"`
	Metrics map[string]metric `json:"metrics"`
	Details map[string]metric `json:"details"`
	Checks  map[string]any    `json:"checks"`
	Errors  []string          `json:"errors,omitempty"`
}

func run(o *options) error {
	switch o.workload {
	case "refine", "live", "cluster":
	default:
		return fmt.Errorf("unknown workload %q (refine | live | cluster)", o.workload)
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	var err error
	if o.work, err = filepath.Abs(o.work); err != nil {
		return err
	}
	env := newEnvironment(o.root)
	logf("preparing dataset (%d users, seed %d)", datasetUsers, datasetSeed)
	if o.ds, err = prepareDataset(o.work, datasetUsers, datasetSeed, env.SourceSHA256); err != nil {
		return fmt.Errorf("preparing dataset: %w", err)
	}
	env.Users, env.Properties, env.Links, env.DatasetSeed = o.ds.Users, o.ds.Props, o.ds.Links, datasetSeed
	env.Seed, env.Workload, env.Seconds, env.Trace, env.Connections, env.SelectClients = o.seed, o.workload, o.seconds, o.trace, o.clients, o.selectors

	// In-process inputs the request generators and checks need, loaded
	// before any server starts.
	var ix *groups.Index
	if o.workload != "cluster" {
		if ix, err = o.ds.loadIndex(); err != nil {
			return err
		}
	}

	c := newHTTPClient(o.clients)
	defer c.CloseIdleConnections()
	o.cal = newCalibration(o.clients)
	calBefore := o.cal.measure()
	logf("%s: %d set-ups", o.workload, setupRepeats)
	d, su, err := setUp(o, o.ds, c)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	status, err := get(c, d.front+"/api/v1/status")
	if err != nil {
		return err
	}
	var st struct {
		Groups int `json:"groups"`
	}
	if err := json.Unmarshal(status, &st); err != nil {
		return err
	}
	env.Groups = st.Groups

	logf("%s: measuring %ds", o.workload, o.seconds)
	// The traced run probes the hit floor and the shard legs over HTTP while
	// the servers are still up, after the measured window.
	tr := newTracer(true)
	var pr *probe
	var after afterWindow
	if o.trace {
		after = func(_ *httpRun, d *deployment, hitBody []byte) error {
			pr, err = probeHTTP(o, d, c, tr, hitBody)
			return err
		}
	}
	var hr *httpRun
	switch o.workload {
	case "refine":
		hr, err = runRefine(o, d, c, ix, after)
	case "live":
		hr, err = runLive(o, d, c, ix, after)
	case "cluster":
		hr, err = runCluster(o, d, c, after)
	}
	if err != nil {
		return err
	}
	d.stop()
	c.CloseIdleConnections()
	calAfter := o.cal.measure()

	// Scale each select by the calibration at its completion, interpolated
	// between the window's pauses; live, which does not pause, and the
	// set-ups by the calibrations around the run.
	speed := calibRef / ((calBefore + calAfter) / 2)
	speedAt := func(float64) float64 { return speed }
	if len(hr.calPoints) > 1 {
		speedAt = func(at float64) float64 { return calibRef / interpolate(hr.calPoints, at) }
	}
	ms, err := endToEnd(hr, su, speed, speedAt)
	if err != nil {
		return err
	}
	correct := hr.mismatches == 0
	checks := map[string]any{"output_checked": hr.checked, "output_mismatches": hr.mismatches}
	errs := hr.errs
	det := details(hr)
	det.set("calib.before_ms", "ms", calBefore*1000, calibRounds)
	det.set("calib.after_ms", "ms", calAfter*1000, calibRounds)
	det.set("calib.speed", "ratio", speed, 2*calibRounds)
	if len(hr.calPoints) > 0 {
		pts := make([]float64, len(hr.calPoints))
		for i, p := range hr.calPoints {
			pts[i] = p.sec * 1000
		}
		det.setWindows("calib.window_ms", "ms", pts, len(pts))
	}
	raw, err := endToEnd(hr, su, 1, func(float64) float64 { return 1 })
	if err != nil {
		return err
	}
	for _, n := range raw.names {
		if n != "select_ok_frac" && n != "rss_ready_mb" {
			det.set("raw."+n, raw.m[n].Unit, raw.m[n].Value, raw.m[n].Samples)
		}
	}
	if o.trace {
		logf("%s: traced replay", o.workload)
		ix = nil
		lm, ok, terrs, err := traceRun(o, hr, pr, tr, o.cal, (calBefore+calAfter)/2)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		for _, n := range ms.names {
			det.set(n, ms.m[n].Unit, ms.m[n].Value, ms.m[n].Samples)
		}
		ms, correct = lm, correct && ok
		checks["reconciled"] = ok
		errs = append(errs, terrs...)
	}
	attempted := hr.selAttempted() + len(hr.writeLat)
	failed := hr.selFailed + hr.mismatches + hr.writeFailed
	rep := report{Env: env, Metrics: ms.m, Details: det.m, Errors: errs, Checks: checks}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return err
	}
	logf("%s: done", o.workload)
	return json.NewEncoder(os.Stdout).Encode(ms.result(correct, attempted, failed))
}

// endToEnd derives the end-to-end metrics of the untraced HTTP run. Timings
// are multiplied (throughput divided) by the calibration's reference time
// over its time in this run: setup_s by setupSpeed, each select by speedAt
// its completion.
func endToEnd(hr *httpRun, su *setUps, setupSpeed float64, speedAt func(at float64) float64) (*metricSet, error) {
	ms := newMetrics()
	ms.set("setup_s", "s", stats.Median(su.seconds)*setupSpeed, len(su.seconds))
	n := hr.selAttempted()
	w, err := windowStats(hr.sel, hr.selFailed, speedAt)
	if err != nil {
		return nil, err
	}
	ms.setWindows("select_p50_ms", "ms", w.p50, n)
	ms.setWindows("select_p90_ms", "ms", w.p90, n)
	ms.setWindows("select_qps", "1/s", w.qps, n)
	ms.set("select_ok_frac", "ratio", 1-float64(hr.selFailed+hr.mismatches)/float64(n), n)
	// The largest of the set-ups' peaks: a garbage collection that lands
	// just before the load peak lowers a single reading by up to 8%.
	ms.set("rss_ready_mb", "MB", slices.Max(su.rssMB), len(su.rssMB))
	return ms, nil
}

// details are HTTP-run figures reported beside the metrics: the live write
// path and the select cache's outcomes.
func details(hr *httpRun) *metricSet {
	ms := newMetrics()
	ms.set("rss_end_mb", "MB", hr.rssEndMB, 1)
	hits := scrape(hr.metricsText, "podium_select_cache_requests_total", `result="hit"`)
	misses := scrape(hr.metricsText, "podium_select_cache_requests_total", `result="miss"`)
	if hits+misses > 0 {
		ms.set("server.cache.hit_frac", "ratio", hits/(hits+misses), int(hits+misses))
		ms.set("server.cache.misses", "count", misses, int(hits+misses))
	}
	if n := len(hr.writeLat); n > 0 {
		if v, err := percentile(hr.writeLat, 0.5); err == nil {
			ms.set("write_p50_ms", "ms", v*1000, n)
		}
		if v, err := percentile(hr.writeLat, 0.9); err == nil {
			ms.set("write_p90_ms", "ms", v*1000, n)
		}
		if v, err := percentile(hr.writeLag, 0.9); err == nil {
			ms.set("loadgen.write_lag_p90_ms", "ms", v*1000, n)
		}
		ms.set("write_ok_frac", "ratio", 1-float64(hr.writeFailed)/float64(n), n)
		ms.set("write_rate", "1/s", liveWriteRate, n)
		ms.set("server.apply.mutations_per_batch", "count",
			scrape(hr.metricsText, "podium_apply_batch_size_sum")/scrape(hr.metricsText, "podium_apply_batch_size_count"), n)
		ms.set("server.apply.shed", "count", scrape(hr.metricsText, "podium_http_requests_shed_total"), n)
	}
	return ms
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s perfbench: %s\n", time.Now().Format("15:04:05.000"), fmt.Sprintf(format, args...))
}
