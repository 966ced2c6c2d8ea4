package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flaky is a scripted handler: it answers each request with the next status
// in its script (the final entry repeats), recording what it saw.
type flaky struct {
	script []int
	n      atomic.Int64
	posts  atomic.Int64
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i := int(f.n.Add(1)) - 1
	if r.Method == http.MethodPost {
		f.posts.Add(1)
	}
	if i >= len(f.script) {
		i = len(f.script) - 1
	}
	code := f.script[i]
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
		fmt.Fprint(w, `{"error":"scripted failure"}`)
		return
	}
	fmt.Fprint(w, `{"name":"flaky","users":1,"properties":1,"groups":1}`)
}

// resilient builds a client against h with instant (recorded) sleeps.
func resilient(t *testing.T, h http.Handler, opts ResilienceOptions) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	if opts.Retry.Seed == 0 {
		opts.Retry.Seed = 1
	}
	c := NewResilient(ts.URL, nil, opts)
	var slept []time.Duration
	c.retry.sleep = func(d time.Duration) { slept = append(slept, d) }
	return c, &slept
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	f := &flaky{script: []int{503, 502, 200}}
	c, slept := resilient(t, f, ResilienceOptions{})
	st, err := c.Status()
	if err != nil {
		t.Fatalf("Status after transients: %v", err)
	}
	if st.Name != "flaky" || f.n.Load() != 3 {
		t.Fatalf("status=%+v after %d attempts", st, f.n.Load())
	}
	// Two retries, equal-jitter over 100ms/200ms: each wait lands in
	// [base/2, base) and the second is exponentially larger.
	if len(*slept) != 2 {
		t.Fatalf("slept %v, want 2 backoffs", *slept)
	}
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		if got := (*slept)[i]; got < want/2 || got >= want {
			t.Fatalf("backoff %d = %v, want in [%v,%v)", i, got, want/2, want)
		}
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	var first atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shed"}`)
			return
		}
		fmt.Fprint(w, `{"name":"ok","users":1,"properties":1,"groups":1}`)
	})
	c, slept := resilient(t, h, ResilienceOptions{})
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != 3*time.Second {
		t.Fatalf("slept %v, want the server's 3s Retry-After", *slept)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	f := &flaky{script: []int{503}}
	c, _ := resilient(t, f, ResilienceOptions{Retry: RetryOptions{MaxAttempts: 3}})
	_, err := c.Status()
	if err == nil {
		t.Fatal("want error after exhausted attempts")
	}
	if f.n.Load() != 3 {
		t.Fatalf("made %d attempts, want 3", f.n.Load())
	}
}

func TestPostNotRetriedOn5xxWithoutOptIn(t *testing.T) {
	// A POST that died with 5xx may have been applied; repeating it without
	// the at-least-once opt-in could duplicate the mutation.
	f := &flaky{script: []int{503, 200}}
	c, _ := resilient(t, f, ResilienceOptions{})
	if _, _, err := c.AddUser("Ada", nil); err == nil {
		t.Fatal("POST 503 must surface without RetryNonIdempotent")
	}
	if f.posts.Load() != 1 {
		t.Fatalf("POST sent %d times, want 1", f.posts.Load())
	}
}

func TestPostRetriedOn429Always(t *testing.T) {
	// 429 means admission control shed the request before the writer saw it:
	// repeating is always safe, opt-in or not.
	var first atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		fmt.Fprint(w, `{"id":7,"groups":2}`)
	})
	c, _ := resilient(t, h, ResilienceOptions{})
	id, _, err := c.AddUser("Ada", nil)
	if err != nil {
		t.Fatalf("AddUser through a shed: %v", err)
	}
	if id != 7 {
		t.Fatalf("id = %d", id)
	}
}

func TestPostRetriedOn5xxWithOptIn(t *testing.T) {
	f := &flaky{script: []int{503, 200}}
	c, _ := resilient(t, f, ResilienceOptions{Retry: RetryOptions{RetryNonIdempotent: true}})
	st, err := c.Status()
	_ = st
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddUser("Ada", nil); err != nil {
		t.Fatalf("opted-in POST retry: %v", err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	down := atomic.Bool{}
	down.Store(true)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"down"}`)
			return
		}
		fmt.Fprint(w, `{"name":"up","users":1,"properties":1,"groups":1}`)
	})
	now := time.Unix(0, 0)
	c, _ := resilient(t, h, ResilienceOptions{
		Retry:   RetryOptions{MaxAttempts: 1},
		Breaker: &BreakerOptions{Window: 8, MinSamples: 4, FailureThreshold: 0.5, Cooldown: time.Second},
	})
	c.breaker.now = func() time.Time { return now }

	// Hammer the dead server until the breaker opens.
	for i := 0; i < 4; i++ {
		if _, err := c.Status(); err == nil {
			t.Fatal("dead server answered")
		}
	}
	_, err := c.Status()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen fail-fast", err)
	}

	// Cooldown passes while the server is still down: the single probe fails
	// and the breaker re-opens for another cooldown.
	now = now.Add(1100 * time.Millisecond)
	if _, err := c.Status(); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("probe was not admitted after cooldown")
	}
	if _, err := c.Status(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not re-open after failed probe: %v", err)
	}

	// Server recovers; next probe closes the breaker for good.
	down.Store(false)
	now = now.Add(1100 * time.Millisecond)
	if _, err := c.Status(); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if _, err := c.Status(); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	b := newBreaker(BreakerOptions{Window: 4, MinSamples: 2, FailureThreshold: 0.5, Cooldown: time.Second}, nil)
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }
	b.record(true)
	b.record(true)
	if b.allow() {
		t.Fatal("breaker closed after 100% failures")
	}
	now = now.Add(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.record(false)
	if !b.allow() {
		t.Fatal("breaker did not close after successful probe")
	}
}

// TestBreakerHalfOpenConcurrentProbes: when the cooldown expires with many
// requests racing, exactly one becomes the probe — the rest keep failing
// fast. A thundering herd of probes would defeat the breaker's purpose
// (protecting a struggling server from exactly that herd). Race-gated: the
// probing flag is the contended state.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	b := newBreaker(BreakerOptions{Window: 4, MinSamples: 2, FailureThreshold: 0.5, Cooldown: time.Second}, nil)
	var mu sync.Mutex
	now := time.Unix(0, 0)
	b.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	b.record(true)
	b.record(true)
	if b.allow() {
		t.Fatal("breaker closed after 100% failures")
	}
	mu.Lock()
	now = now.Add(1100 * time.Millisecond)
	mu.Unlock()

	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.allow() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}
	if b.currentState() != BreakerHalfOpen {
		t.Fatalf("state = %q with a probe in flight, want half-open", b.currentState())
	}
	// The single probe succeeds: the breaker closes and everyone flows again.
	b.record(false)
	if b.currentState() != BreakerClosed {
		t.Fatalf("state = %q after successful probe, want closed", b.currentState())
	}
	for i := 0; i < 4; i++ {
		if !b.allow() {
			t.Fatal("closed breaker rejected a request")
		}
	}
}

// TestBreakerHalfOpenSingleProbeOnWire is the end-to-end form: an open
// breaker whose cooldown has expired lets exactly one HTTP request reach the
// recovered server while concurrent callers fail fast with ErrCircuitOpen.
// The recovered server holds the probe's response until the other fifteen
// callers have failed fast: a probe answered sooner closes the breaker, and
// callers arriving after that rightly pass as closed-state requests. The
// hold is bounded, so a breaker that lets more than one probe through still
// fails the assertions below rather than hanging.
func TestBreakerHalfOpenSingleProbeOnWire(t *testing.T) {
	down := atomic.Bool{}
	down.Store(true)
	var hits atomic.Int64
	burstDone := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"down"}`)
			return
		}
		select {
		case <-burstDone:
		case <-time.After(5 * time.Second):
		}
		fmt.Fprint(w, `{"name":"up","users":1,"properties":1,"groups":1}`)
	})
	c, _ := resilient(t, h, ResilienceOptions{
		Retry:   RetryOptions{MaxAttempts: 1},
		Breaker: &BreakerOptions{Window: 8, MinSamples: 4, FailureThreshold: 0.5, Cooldown: time.Second},
	})
	var mu sync.Mutex
	now := time.Unix(0, 0)
	c.breaker.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	for i := 0; i < 4; i++ {
		if _, err := c.Status(); err == nil {
			t.Fatal("dead server answered")
		}
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("state = %q after failures, want open", got)
	}
	down.Store(false)
	mu.Lock()
	now = now.Add(1100 * time.Millisecond)
	mu.Unlock()
	before := hits.Load()

	var probeOK, failFast atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Status()
			switch {
			case err == nil:
				probeOK.Add(1)
			case errors.Is(err, ErrCircuitOpen):
				if failFast.Add(1) == 15 {
					close(burstDone)
				}
			default:
				t.Errorf("unexpected error during half-open burst: %v", err)
			}
		}()
	}
	wg.Wait()
	if probeOK.Load() != 1 || failFast.Load() != 15 {
		t.Fatalf("burst: %d probes succeeded, %d failed fast — want 1/15", probeOK.Load(), failFast.Load())
	}
	if got := hits.Load() - before; got != 1 {
		t.Fatalf("server saw %d requests during half-open, want 1 (no thundering herd)", got)
	}
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("state = %q after winning probe, want closed", got)
	}
}

func TestRetryScheduleDeterministicUnderSeed(t *testing.T) {
	run := func() []time.Duration {
		f := &flaky{script: []int{503, 503, 503, 200}}
		c, slept := resilient(t, f, ResilienceOptions{Retry: RetryOptions{Seed: 42}})
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
		return *slept
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedules %v / %v, want 3 backoffs each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge: %v vs %v", a, b)
		}
	}
}
