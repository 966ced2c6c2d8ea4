package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"podium/internal/stats"
)

// minBeyond is the fewest samples a reported percentile must have beyond it:
// with fewer, a "p99" is really the maximum of a handful of samples.
const minBeyond = 10

// percentile returns the q-quantile of xs (internal/stats, R-7), refusing
// when fewer than minBeyond samples lie beyond it. The slack keeps 100
// samples' p90 (0.1 × 100 reads 9.999… in floating point) allowed.
func percentile(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond+1e-9 < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples give %.1f",
			q*100, minBeyond, len(xs), beyond)
	}
	return stats.Quantile(xs, q), nil
}

// metric is one reported value with its unit and the number of samples it
// was computed from; a windowed metric also keeps its per-window values.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	Windows []float64 `json:"windows,omitempty"`
}

// Windowed select statistics: the measured window is cut, in completion
// order, into at most maxWindows runs of at least minWindowSamples selects
// each, and a metric reports the median over them. A slow spell on a shared
// machine then moves the windows it falls in, not the reported value.
const (
	maxWindows = 10
	// minWindowSamples gives each window's p90 minBeyond samples beyond it.
	minWindowSamples = 100
)

// windowed holds each window's select percentiles (ms) and throughput (1/s).
type windowed struct{ p50, p90, qps []float64 }

// windowStats computes the per-window statistics of the successful selects
// ok (in completion order). Every failed select is added to every window's
// latencies at failedLatency, so a failure counts against every percentile.
//
// A window's p50 is the mean of its groups' medians. In a mix of request
// kinds with equal shares and distinct costs (cluster's four rule and budget
// combinations) the pooled median falls on the boundary between two kinds
// and jumps between their levels from window to window; each kind's own
// median does not. A stream of one group has the pooled median.
//
// Each latency is multiplied, and each window's throughput divided by its
// selects' mean, by speedAt the select's completion.
func windowStats(ok []sample, failed int, speedAt func(at float64) float64) (windowed, error) {
	var w windowed
	if len(ok) == 0 {
		return w, fmt.Errorf("no select succeeded (%d failed)", failed)
	}
	k := min(maxWindows, max(1, len(ok)/minWindowSamples))
	from, opened := 0, 0.0
	for i := 0; i < k; i++ {
		to := len(ok) * (i + 1) / k
		lat := make([]float64, 0, to-from+failed)
		byGroup := map[string][]float64{}
		var speed float64
		for _, s := range ok[from:to] {
			f := speedAt(s.at)
			speed += f / float64(to-from)
			lat = append(lat, s.lat*1000*f)
			byGroup[s.group] = append(byGroup[s.group], s.lat*1000*f)
		}
		for j := 0; j < failed; j++ {
			lat = append(lat, failedLatency.Seconds()*1000)
			for g := range byGroup {
				byGroup[g] = append(byGroup[g], failedLatency.Seconds()*1000)
			}
		}
		groups := make([]string, 0, len(byGroup))
		for g := range byGroup {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		var p50 float64
		for _, g := range groups {
			v, err := percentile(byGroup[g], 0.5)
			if err != nil {
				return w, fmt.Errorf("select_p50_ms: %w", err)
			}
			p50 += v / float64(len(groups))
		}
		p90, err := percentile(lat, 0.9)
		if err != nil {
			return w, fmt.Errorf("select_p90_ms: %w", err)
		}
		closed := ok[to-1].at
		w.p50 = append(w.p50, p50)
		w.p90 = append(w.p90, p90)
		w.qps = append(w.qps, float64(to-from)/(closed-opened)/speed)
		from, opened = to, closed
	}
	return w, nil
}

// metricSet is an ordered set of metrics.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metricSet { return &metricSet{m: map[string]metric{}} }

func (ms *metricSet) set(name, unit string, v float64, samples int) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// setWindows sets name to the median of its per-window values.
func (ms *metricSet) setWindows(name, unit string, windows []float64, samples int) {
	ms.set(name, unit, stats.Median(windows), samples)
	m := ms.m[name]
	m.Windows = windows
	ms.m[name] = m
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func (ms *metricSet) result(correct bool, attempted, failed int) result {
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, n := range ms.names {
		out.Metrics[n] = map[string]any{"value": ms.m[n].Value, "unit": ms.m[n].Unit}
	}
	return out
}

// environment is recorded with every result.
type environment struct {
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	SourceSHA256  string `json:"source_sha256"`
	Users         int    `json:"users"`
	Properties    int    `json:"properties"`
	Groups        int    `json:"groups"`
	Links         int    `json:"links"`
	DatasetSeed   int64  `json:"dataset_seed"`
	Seed          int64  `json:"workload_seed"`
	Workload      string `json:"workload"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	Connections   int    `json:"connections"`
	SelectClients int    `json:"select_clients"`
}

func newEnvironment(root string) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// Only the checkout's own repository names its commit, never one that
	// happens to enclose it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	env.SourceSHA256 = sourceHash(root)
	return env
}

// sourceHash digests the program's Go sources and go.mod: the commit's
// identity when the checkout is not a git repository.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
