package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"podium/internal/stats"
)

// calibration is a fixed piece of CPU work, independent of the program
// under test, that the benchmark times with the servers idle just before the
// set-ups and just after the measured window. The shared host's speed drifts
// by up to a fifth over minutes; the end-to-end timings are scaled by
// calibRef / (calibration time), which puts runs made at different host
// speeds on one footing. The work is integer arithmetic, a sort and a JSON
// encode, run on as many goroutines as the load has connections.
type calibration struct {
	workers int
	doc     []calibRow
	keys    []uint64
}

type calibRow struct {
	ID    int                `json:"id"`
	Name  string             `json:"name"`
	Score float64            `json:"score"`
	Props map[string]float64 `json:"props"`
	Tags  []string           `json:"tags"`
}

const (
	// calibRounds is how many rounds one calibration before or after a run
	// times; it reports their median.
	calibRounds = 9
	// On closed-loop workloads the measured window also pauses every
	// calibEvery for a calibration of calibPauseRounds rounds, so drift
	// within the window is tracked too.
	calibEvery       = 5 * time.Second
	calibPauseRounds = 3
	// calibRef is the calibration's round time in seconds on the reference
	// host (2-vCPU Xeon guest, quiet spell): normalised timings read as
	// they would there.
	calibRef = 0.134
)

func newCalibration(workers int) *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{workers: workers}
	c.doc = make([]calibRow, 2000)
	for i := range c.doc {
		r := calibRow{ID: i, Name: "user-" + string(rune('a'+i%26)), Score: rng.Float64(), Props: map[string]float64{}}
		for k := 0; k < 8; k++ {
			r.Props["prop-"+string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26)))] = rng.Float64()
		}
		r.Tags = []string{"tier-1", "bucket-2", "group-3"}
		c.doc[i] = r
	}
	c.keys = make([]uint64, 200000)
	for i := range c.keys {
		c.keys[i] = rng.Uint64()
	}
	return c
}

// calibSink keeps the arithmetic loop from being optimised away.
var calibSink uint64

// round runs one unit of work on every worker concurrently.
func (c *calibration) round() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w)
			for i := 0; i < 50<<20; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			ks := append([]uint64(nil), c.keys...)
			sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
			if err := json.NewEncoder(io.Discard).Encode(c.doc); err != nil {
				panic(err)
			}
			mu.Lock()
			calibSink += x + ks[0]
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// interpolate returns the calibration time at active time at, linear
// between the points around it (points are in time order).
func interpolate(points []calPoint, at float64) float64 {
	if at <= points[0].at {
		return points[0].sec
	}
	for i := 1; i < len(points); i++ {
		if at <= points[i].at {
			a, b := points[i-1], points[i]
			if b.at == a.at {
				return b.sec
			}
			return a.sec + (b.sec-a.sec)*(at-a.at)/(b.at-a.at)
		}
	}
	return points[len(points)-1].sec
}

// measure times calibRounds rounds and returns their median in seconds.
func (c *calibration) measure() float64 { return c.measureRounds(calibRounds) }

// measureRounds times n rounds and returns their median in seconds. It
// collects garbage first, so that the benchmark's own heap, which differs
// between workloads, is not swept during the rounds.
func (c *calibration) measureRounds(n int) float64 {
	runtime.GC()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = c.round().Seconds()
	}
	return stats.Median(xs)
}
