// The closed-loop serving drive that the obs and faults suites share: a
// sparse synthetic population written to a repository log, a deterministic
// per-client operation mix, and closed-loop clients that invoke a handler
// in-process (httptest recorders, no sockets), so the numbers isolate the
// serving path itself: request decoding, selection, explanation, encoding,
// and — on the write path — durability and index maintenance.
package experiments

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"podium/internal/repolog"
)

// ServerConfig parameterizes the serving drive. The dataset is a sparse
// opinion matrix: a large property vocabulary with a handful of scored
// properties per user.
type ServerConfig struct {
	Seed int64
	// Users / Props / PropsPerUser shape the synthetic population
	// (defaults 2000 / 2500 / 8).
	Users, Props, PropsPerUser int
	// Clients is the closed-loop client count (default 8).
	Clients int
	// Duration is the measured run length per drive (default 2s).
	Duration time.Duration
	// WritePct is the percentage of operations that mutate (default 10).
	WritePct int
	// BatchWindow is the snapshot writer's coalescing window (default 10ms).
	// Zero keeps the default, so a drive always runs with a window.
	BatchWindow time.Duration
	Budget      int
}

func (c ServerConfig) withDefaults() ServerConfig {
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
		c.Duration = 2 * time.Second
	}
	if c.WritePct <= 0 {
		c.WritePct = 10
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 10 * time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = 8
	}
	return c
}

// ServerRunStats is one drive's measured throughput and latency.
type ServerRunStats struct {
	Server     string  `json:"server"`
	ReadOps    int     `json:"read_ops"`
	WriteOps   int     `json:"write_ops"`
	ReadQPS    float64 `json:"read_qps"`
	WriteQPS   float64 `json:"write_qps"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP50Ms float64 `json:"write_p50_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
}

// sparseLog writes the benchmark population into a fresh repository log at
// path: Users users, scores on PropsPerUser properties drawn from a
// Props-sized vocabulary. Servers that replay logs written with one config
// start from identical state.
func sparseLog(path string, cfg ServerConfig) error {
	l, err := repolog.Open(path)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for u := 0; u < cfg.Users; u++ {
		id, err := l.AddUser(fmt.Sprintf("user-%05d", u))
		if err != nil {
			l.Close()
			return err
		}
		for _, p := range rng.Perm(cfg.Props)[:cfg.PropsPerUser] {
			score := float64(rng.Intn(1001)) / 1000
			if err := l.SetScore(id, propLabel(p), score); err != nil {
				l.Close()
				return err
			}
		}
	}
	return l.Close()
}

func propLabel(p int) string { return fmt.Sprintf("prop-%05d", p) }

// benchOp is one generated request. The mix mirrors a procurement dashboard:
// reads are dominated by group browsing and status polling with periodic
// selections; writes are mostly score updates with occasional sign-ups.
type benchOp struct {
	method, path, body string
	write              bool
}

// opStream deterministically generates the operation mix for one client.
func opStream(clientID int, cfg ServerConfig) func() benchOp {
	rng := rand.New(rand.NewSource(cfg.Seed*1009 + int64(clientID)))
	nextUser := 0
	return func() benchOp {
		if rng.Intn(100) < cfg.WritePct {
			if rng.Intn(100) < 15 {
				nextUser++
				name := fmt.Sprintf("c%d-new-%d", clientID, nextUser)
				props := make([]string, 0, 4)
				for _, p := range rng.Perm(cfg.Props)[:4] {
					props = append(props, fmt.Sprintf("%q:%g", propLabel(p), float64(rng.Intn(1001))/1000))
				}
				return benchOp{http.MethodPost, "/api/v1/users",
					fmt.Sprintf(`{"name":%q,"properties":{%s}}`, name, strings.Join(props, ",")), true}
			}
			return benchOp{http.MethodPost, "/api/v1/scores",
				fmt.Sprintf(`{"user":%d,"label":%q,"score":%g}`,
					rng.Intn(cfg.Users), propLabel(rng.Intn(cfg.Props)), float64(rng.Intn(1001))/1000), true}
		}
		switch r := rng.Intn(100); {
		case r < 2:
			return benchOp{http.MethodPost, "/api/v1/select",
				fmt.Sprintf(`{"budget":%d}`, cfg.Budget), false}
		case r < 70:
			return benchOp{http.MethodGet, "/api/v1/groups?limit=20", "", false}
		case r < 82:
			return benchOp{http.MethodGet,
				"/api/v1/distribution?prop=" + propLabel(rng.Intn(cfg.Props)), "", false}
		default:
			return benchOp{http.MethodGet, "/api/v1/status", "", false}
		}
	}
}

// driveClients runs cfg.Clients closed-loop clients against h for
// cfg.Duration and returns read/write latency samples (in seconds).
func driveClients(h http.Handler, cfg ServerConfig) (readLat, writeLat []float64, elapsed float64) {
	type sample struct {
		lat   float64
		write bool
	}
	perClient := make([][]sample, cfg.Clients)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := opStream(c, cfg)
			for time.Now().Before(deadline) {
				op := next()
				req := httptest.NewRequest(op.method, op.path, strings.NewReader(op.body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				lat := time.Since(t0).Seconds()
				// A handful of vocabulary properties may end up unscored by
				// the generator; their distribution probes 404 and still
				// count as served reads.
				if rec.Code != http.StatusOK &&
					!(rec.Code == http.StatusNotFound && strings.HasPrefix(op.path, "/api/v1/distribution")) {
					panic(fmt.Sprintf("serving drive: %s %s -> %d: %s", op.method, op.path, rec.Code, rec.Body.String()))
				}
				perClient[c] = append(perClient[c], sample{lat, op.write})
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start).Seconds()
	for _, samples := range perClient {
		for _, s := range samples {
			if s.write {
				writeLat = append(writeLat, s.lat)
			} else {
				readLat = append(readLat, s.lat)
			}
		}
	}
	return readLat, writeLat, elapsed
}

func percentileMs(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	i := int(p * float64(len(sorted)-1))
	return sorted[i] * 1000
}

func runStats(name string, readLat, writeLat []float64, elapsed float64) ServerRunStats {
	return ServerRunStats{
		Server:     name,
		ReadOps:    len(readLat),
		WriteOps:   len(writeLat),
		ReadQPS:    float64(len(readLat)) / elapsed,
		WriteQPS:   float64(len(writeLat)) / elapsed,
		ReadP50Ms:  percentileMs(readLat, 0.50),
		ReadP99Ms:  percentileMs(readLat, 0.99),
		WriteP50Ms: percentileMs(writeLat, 0.50),
		WriteP99Ms: percentileMs(writeLat, 0.99),
	}
}
