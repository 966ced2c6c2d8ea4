package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one podium-server child process. Its stdout is scanned for
// the listen line; stdout and stderr are kept in a bounded tail for error
// reports.
type serverProc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	started time.Time

	tailMu sync.Mutex
	tail   []string
	// done is closed once the output readers have finished and the process
	// has been reaped.
	done    chan struct{}
	exitErr error
}

const tailLines = 40

// startServer execs bin with args and waits until the server reports its
// listen address, or fails when the process exits or timeout passes first.
func startServer(bin, name string, args []string, timeout time.Duration) (*serverProc, error) {
	p := &serverProc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	// A benchmark killed from outside must not leave servers behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	listening := make(chan string, 1)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		p.scan(stdout, listening)
	}()
	go func() {
		defer readers.Done()
		p.scan(stderr, nil)
	}()
	go func() {
		readers.Wait()
		p.exitErr = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case u := <-listening:
		p.url = u
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening (%v):\n%s", name, p.exitErr, p.Tail())
	case <-time.After(timeout):
		p.Stop()
		return nil, fmt.Errorf("%s: not listening after %s:\n%s", name, timeout, p.Tail())
	}
}

// scan records output lines; on stdout it reports the listen address.
func (p *serverProc) scan(r io.Reader, listening chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	const marker = "listening on "
	for sc.Scan() {
		line := sc.Text()
		p.tailMu.Lock()
		p.tail = append(p.tail, line)
		if len(p.tail) > tailLines {
			p.tail = p.tail[len(p.tail)-tailLines:]
		}
		p.tailMu.Unlock()
		if listening != nil {
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case listening <- strings.TrimSpace(line[i+len(marker):]):
				default:
				}
			}
		}
	}
	// Keep draining after a scanner error so the child never blocks on a
	// full pipe.
	io.Copy(io.Discard, r)
}

// Tail returns the last output lines of the process.
func (p *serverProc) Tail() string {
	p.tailMu.Lock()
	defer p.tailMu.Unlock()
	return strings.Join(p.tail, "\n")
}

// PeakRSSMB reads the process's resident high-water mark (VmHWM) in MB.
func (p *serverProc) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// Stop asks the server to drain (SIGTERM), kills it if it has not exited
// within the grace period, and waits until it has been reaped.
func (p *serverProc) Stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// cleanExit reports whether the stopped server drained cleanly.
func (p *serverProc) cleanExit() error {
	<-p.done
	if p.exitErr != nil {
		return fmt.Errorf("%s: %v:\n%s", p.name, p.exitErr, p.Tail())
	}
	return nil
}

// stopAll stops every process concurrently and waits for all of them.
func stopAll(ps []*serverProc) {
	var wg sync.WaitGroup
	for _, p := range ps {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func(p *serverProc) {
			defer wg.Done()
			p.Stop()
		}(p)
	}
	wg.Wait()
}

// copyFile copies src to dst (a fresh copy of a prepared input).
func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// trimBody shortens a response body for error messages.
func trimBody(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 300 {
		b = append(b[:300:300], "..."...)
	}
	return string(b)
}
