package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// shardCount is the cluster workload's shard count S (one replica each).
const shardCount = 4

// deployment is one running server topology of a workload.
type deployment struct {
	procs []*serverProc
	// front is the URL selects go to: the single server or the coordinator.
	front string
	// shards are the shard servers' URLs on the cluster workload.
	shards []string
	dir    string
}

func (d *deployment) stop() { stopAll(d.procs) }

// peakRSSMB sums the servers' resident high-water marks.
func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range d.procs {
		mb, err := p.PeakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

const listenTimeout = 120 * time.Second

// deploy starts the workload's servers in dir from a fresh copy of the
// prepared inputs. It returns when every server listens; started is when
// the first process was exec'd.
func deploy(o *options, ds *dataset, dir string) (*deployment, time.Time, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, time.Time{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, time.Time{}, err
	}
	d := &deployment{dir: dir}
	addr := []string{"-addr", "127.0.0.1:0"}
	switch o.workload {
	case "refine":
		img := filepath.Join(dir, "repo.img")
		if err := copyFile(img, ds.Image); err != nil {
			return nil, time.Time{}, err
		}
		p, err := startServer(o.bin, "server", append([]string{"-snapshot-image", img}, addr...), listenTimeout)
		if err != nil {
			return nil, time.Time{}, err
		}
		d.procs, d.front = []*serverProc{p}, p.url
	case "live":
		lg := filepath.Join(dir, "repo.plog")
		if err := copyFile(lg, ds.Log); err != nil {
			return nil, time.Time{}, err
		}
		p, err := startServer(o.bin, "server", append([]string{"-log", lg}, addr...), listenTimeout)
		if err != nil {
			return nil, time.Time{}, err
		}
		d.procs, d.front = []*serverProc{p}, p.url
	case "cluster":
		img := filepath.Join(dir, "repo.img")
		if err := copyFile(img, ds.Image); err != nil {
			return nil, time.Time{}, err
		}
		procs := make([]*serverProc, shardCount)
		errs := make([]error, shardCount)
		var wg sync.WaitGroup
		for i := 0; i < shardCount; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				procs[i], errs[i] = startServer(o.bin, fmt.Sprintf("shard-%d", i), append([]string{
					"-snapshot-image", img, "-shards", fmt.Sprint(shardCount), "-shard-id", fmt.Sprint(i)}, addr...), listenTimeout)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				stopAll(procs)
				return nil, time.Time{}, err
			}
		}
		for _, p := range procs {
			d.shards = append(d.shards, p.url)
		}
		co, err := startServer(o.bin, "coordinator", append([]string{
			"-snapshot-image", img, "-coordinator", strings.Join(d.shards, ",")}, addr...), listenTimeout)
		if err != nil {
			stopAll(procs)
			return nil, time.Time{}, err
		}
		d.procs, d.front = append(procs, co), co.url
	default:
		return nil, time.Time{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	started := d.procs[0].started
	for _, p := range d.procs {
		if p.started.Before(started) {
			started = p.started
		}
	}
	return d, started, nil
}

// setUps is what the set-up repetitions of one run measured.
type setUps struct {
	// seconds from the first exec to the first successful select.
	seconds []float64
	// rssMB is the servers' summed peak RSS right after that select.
	rssMB []float64
}

// setUp deploys the workload setupRepeats times, each from fresh inputs, and
// times each from the first exec to the first successful select. All but
// the last deployment are stopped; the last one serves the measured run.
func setUp(o *options, ds *dataset, c *http.Client) (*deployment, *setUps, error) {
	su := &setUps{}
	for i := 0; i < setupRepeats; i++ {
		d, started, err := deploy(o, ds, filepath.Join(o.work, "run", o.workload, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		done, err := waitFirstSelect(c, d.front, started.Add(listenTimeout))
		if err == nil {
			var rss float64
			rss, err = d.peakRSSMB()
			su.rssMB = append(su.rssMB, rss)
		}
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		su.seconds = append(su.seconds, done.Sub(started).Seconds())
		if i == setupRepeats-1 {
			return d, su, nil
		}
		d.stop()
		c.CloseIdleConnections()
		os.RemoveAll(d.dir)
	}
	return nil, nil, fmt.Errorf("no set-up repetitions requested")
}
