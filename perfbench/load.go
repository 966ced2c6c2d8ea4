package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// failedLatency is the latency recorded for a failed or refused request: it
// sorts above every real sample, so a failure counts against every latency
// percentile instead of disappearing from the sample set.
const failedLatency = 60 * time.Second

// newHTTPClient returns the load generator's client: keep-alive connections,
// at most conns of them to any one server, no transparent compression.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: failedLatency,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// doRequest sends one request and reads the whole response into buf. The
// latency runs from send to the last body byte.
func doRequest(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

// post is doRequest for a JSON POST that must answer 200.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	code, lat, err := doRequest(c, http.MethodPost, url, body, buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("POST %s: HTTP %d: %s", url, code, trimBody(buf.Bytes()))
	}
	return lat, err
}

// get fetches url and requires 200.
func get(c *http.Client, url string) ([]byte, error) {
	var buf bytes.Buffer
	code, _, err := doRequest(c, http.MethodGet, url, nil, &buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", url, code, trimBody(buf.Bytes()))
	}
	return buf.Bytes(), err
}

// waitFirstSelect polls a default select until it succeeds and returns when
// it did.
func waitFirstSelect(c *http.Client, base string, deadline time.Time) (time.Time, error) {
	var buf bytes.Buffer
	body := []byte(`{"budget":8}`)
	for {
		_, err := post(c, base+"/api/v1/select", body, &buf)
		if err == nil {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("no successful select by the set-up deadline: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// selectOp is one select request of a workload's stream.
type selectOp struct {
	key  string // check key: requests with equal keys must answer equal bytes
	body []byte
	// group names the request's kind in a mix of kinds (cluster's rule and
	// budget combinations); the median is taken within each group.
	group string
}

// sample is one successful select: when it completed, in seconds since the
// measured window opened, its latency in seconds and its request's group.
type sample struct {
	at, lat float64
	group   string
}

// recorder collects one closed-loop client's select outcomes.
type recorder struct {
	ok     []sample
	failed int
	errs   []string
	// sums holds the CRC of every response per check key; kept holds the
	// first body per key for the post-run output check.
	sums map[string]map[uint32]int
	kept map[string][]byte
	keep func(i int, op selectOp) bool
}

func newRecorder(keep func(i int, op selectOp) bool) *recorder {
	return &recorder{sums: map[string]map[uint32]int{}, kept: map[string][]byte{}, keep: keep}
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// calPoint is a calibration time (seconds per round) taken at active time
// at of the measured window.
type calPoint struct{ at, sec float64 }

// window is one measured window. With a calibration it pauses the clients
// every calibEvery, between requests, and times calibPauseRounds rounds;
// pauses are not measured time, so the window measures d of active time.
type window struct {
	start time.Time
	d     time.Duration
	// gate is held shared by each request in flight and exclusively by a
	// pause; paused is the pauses' total, written under the exclusive hold.
	gate   sync.RWMutex
	paused time.Duration
	points []calPoint
}

// active is the measured time since the window opened, pauses excluded.
func (w *window) active() time.Duration { return time.Since(w.start) - w.paused }

// calibrate pauses the clients for one calibration.
func (w *window) calibrate(cal *calibration) {
	w.gate.Lock()
	defer w.gate.Unlock()
	at := w.active()
	t0 := time.Now()
	sec := cal.measureRounds(calibPauseRounds)
	w.paused += time.Since(t0)
	w.points = append(w.points, calPoint{at: at.Seconds(), sec: sec})
}

// closedLoop runs one closed-loop select client until the window has
// measured its length: the next request goes out only once the previous
// one has completed.
func closedLoop(c *http.Client, url string, ops []selectOp, w *window, rec *recorder) {
	var buf bytes.Buffer
	for i := 0; ; i++ {
		w.gate.RLock()
		if w.active() >= w.d {
			w.gate.RUnlock()
			return
		}
		if i >= len(ops) {
			w.gate.RUnlock()
			rec.fail(fmt.Errorf("request stream exhausted after %d selects", i))
			return
		}
		op := ops[i]
		lat, err := post(c, url, op.body, &buf)
		at := w.active().Seconds()
		w.gate.RUnlock()
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok = append(rec.ok, sample{at: at, lat: lat.Seconds(), group: op.group})
		if op.key == "" {
			continue
		}
		sum := crc32.ChecksumIEEE(buf.Bytes())
		m := rec.sums[op.key]
		if m == nil {
			m = map[uint32]int{}
			rec.sums[op.key] = m
		}
		m[sum]++
		if _, ok := rec.kept[op.key]; !ok && rec.keep(i, op) {
			rec.kept[op.key] = append([]byte(nil), buf.Bytes()...)
		}
	}
}

// runClients runs one closed-loop client per op stream concurrently for d
// of active time and returns their recorders, the active time and, when cal
// is set, the calibrations taken at the window's start, every calibEvery
// and at its end.
func runClients(c *http.Client, url string, streams [][]selectOp, d time.Duration, keep func(int, selectOp) bool, cal *calibration) ([]*recorder, time.Duration, []calPoint) {
	recs := make([]*recorder, len(streams))
	w := &window{d: d}
	w.start = time.Now()
	done := make(chan struct{})
	var pauses sync.WaitGroup
	if cal != nil {
		w.calibrate(cal)
		pauses.Add(1)
		go func() {
			defer pauses.Done()
			t := time.NewTicker(calibEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					w.calibrate(cal)
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for i := range streams {
		recs[i] = newRecorder(keep)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closedLoop(c, url, streams[i], w, recs[i])
		}(i)
	}
	wg.Wait()
	close(done)
	pauses.Wait()
	if cal != nil {
		w.calibrate(cal)
	}
	return recs, w.active(), w.points
}

// mergeRecorders pools the clients' samples in completion order and checks
// that every response under one check key carried identical bytes; each
// extra variant counts as a mismatch.
func mergeRecorders(recs []*recorder) (ok []sample, failed int, errs []string, kept map[string][]byte, mismatches int) {
	kept = map[string][]byte{}
	sums := map[string]map[uint32]int{}
	for _, r := range recs {
		ok = append(ok, r.ok...)
		failed += r.failed
		errs = append(errs, r.errs...)
		for k, b := range r.kept {
			if _, ok := kept[k]; !ok {
				kept[k] = b
			}
		}
		for k, m := range r.sums {
			if sums[k] == nil {
				sums[k] = map[uint32]int{}
			}
			for s, n := range m {
				sums[k][s] += n
			}
		}
	}
	for k, m := range sums {
		if len(m) <= 1 {
			continue
		}
		// The majority variant is taken as the answer; every response of
		// another variant is a mismatch.
		counts := make([]int, 0, len(m))
		for _, n := range m {
			counts = append(counts, n)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		for _, n := range counts[1:] {
			mismatches += n
		}
		errs = append(errs, fmt.Sprintf("%d distinct responses for %s", len(m), k))
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].at < ok[j].at })
	return ok, failed, errs, kept, mismatches
}

// scrape fetches the Prometheus exposition and returns the sum of every
// sample of family name whose labels contain all of want ("k=\"v\"").
func scrape(text, name string, want ...string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(rest, w) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		var v float64
		if _, err := fmt.Sscanf(f[len(f)-1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}
