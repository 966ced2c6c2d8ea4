package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"podium/internal/groups"
)

func TestHardenedRecoversPanicsTo500(t *testing.T) {
	s := newTestServer(t)
	s.mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	var logged []string
	h := s.Hardened(HardenOptions{Logf: func(f string, a ...interface{}) {
		logged = append(logged, fmt.Sprintf(f, a...))
	}})

	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic surfaced as %d, want 500", rec.Code)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Status  int    `json:"status"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil ||
		body.Error.Code != "internal" || body.Error.Message == "" || body.Error.Status != 500 {
		t.Fatalf("500 body = %q, want error envelope", rec.Body.String())
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "kaboom") {
		t.Fatalf("panic not logged: %v", logged)
	}
	// The report must carry a stack trace pointing at the handler.
	if !strings.Contains(logged[0], "goroutine") || !strings.Contains(logged[0], "harden_test.go") {
		t.Fatalf("panic log has no usable stack:\n%s", logged[0])
	}
	// An unaffected route still serves.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status after panic = %d", rec.Code)
	}
}

func TestHardenedReRaisesAbortHandler(t *testing.T) {
	// http.ErrAbortHandler is the sanctioned "kill this connection" panic
	// (writeJSONRaw and the fault injector both use it); swallowing it into a
	// 500 would turn deliberate aborts into garbage responses.
	s := newTestServer(t)
	s.mux.HandleFunc("/abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	h := s.Hardened(HardenOptions{Logf: func(string, ...interface{}) {
		t.Error("abort panic must not be logged as a crash")
	}})
	defer func() {
		if e := recover(); e != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-panicked", e)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	t.Fatal("handler returned normally; abort was swallowed")
}

func TestHardenedAbortsAfterHeadersSent(t *testing.T) {
	// A panic after the header is out cannot become a clean 500; the only
	// honest move is aborting the connection.
	s := newTestServer(t)
	s.mux.HandleFunc("/late-boom", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"partial":`)
		panic("late kaboom")
	})
	h := s.Hardened(HardenOptions{Logf: func(string, ...interface{}) {}})
	defer func() {
		if e := recover(); e != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want connection abort", e)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/late-boom", nil))
	t.Fatal("late panic did not abort the connection")
}

func TestWriteJSONAbortsOnShortWrite(t *testing.T) {
	// Regression for the silent-truncation bug: a response writer that fails
	// mid-body must kill the connection, not hand the client a torn payload
	// with a 200 status line.
	defer func() {
		if e := recover(); e != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", e)
		}
	}()
	writeJSONRaw(failingWriter{httptest.NewRecorder()}, http.StatusOK, []byte(`{"ok":true}`))
	t.Fatal("short write did not abort")
}

type failingWriter struct{ *httptest.ResponseRecorder }

func (f failingWriter) Write(p []byte) (int, error) {
	return len(p) / 2, fmt.Errorf("wire cut")
}

func TestHardenedCapsRequestBodies(t *testing.T) {
	path := t.TempDir() + "/cap.plog"
	ms, err := NewMutable("cap", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	h := ms.Hardened(HardenOptions{MaxBodyBytes: 256, Logf: func(string, ...interface{}) {}})

	// Valid JSON well past the cap: without MaxBytesReader this mutation
	// would succeed, so the 400 proves the cap did the rejecting.
	huge := fmt.Sprintf(`{"name":"X","properties":{"%s":1}}`, strings.Repeat("a", 500))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/users", strings.NewReader(huge)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body answered %d, want 400", rec.Code)
	}
	// A normal-sized mutation still goes through.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/users", strings.NewReader(`{"name":"A"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("small body answered %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHardenedAppliesRequestDeadline(t *testing.T) {
	s := newTestServer(t)
	sawDeadline := false
	s.mux.HandleFunc("/deadline", func(w http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
		writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
	})
	h := s.Hardened(HardenOptions{RequestTimeout: time.Second})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/deadline", nil))
	if !sawDeadline {
		t.Fatal("handler context has no deadline")
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	s := newTestServer(t)
	get := func(path string) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain = %d", got)
	}
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	// Draining: readiness flips so balancers stop routing, liveness holds so
	// the process isn't killed mid-drain.
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during drain = %d", got)
	}
}

func TestOverloadShedsWith429WhileReadsServe(t *testing.T) {
	// Deterministic overload: hold the single writer in beforeApply, fill the
	// depth-1 queue, and watch admission control shed the overflow while the
	// lock-free read path keeps serving the published epoch.
	path := t.TempDir() + "/shed.plog"
	ms, err := NewMutableOpts("shed", path, groups.Config{K: 3}, nil, MutableOptions{
		MaxBatch: 1, QueueDepth: 1, RetryAfter: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	ms.beforeApply = func() {
		entered <- struct{}{}
		<-release
	}

	post := func(name string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"name":%q}`, name)
		ms.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/users", strings.NewReader(body)))
		return rec
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); post("held-by-writer") }()
	<-entered // the writer now owns mutation 1 and is parked
	go func() { defer wg.Done(); post("queued") }()
	for len(ms.mutCh) == 0 {
		time.Sleep(time.Millisecond) // wait for mutation 2 to occupy the queue
	}

	// Queue full: the next mutation must be shed, not block.
	rec := post("shed-me")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload answered %d, want 429: %s", rec.Code, rec.Body.String())
	}
	// RetryAfter 1.5s advertises as 2 (rounded up to whole seconds).
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}

	// Reads are untouched: the snapshot path never crosses the writer.
	readRec := httptest.NewRecorder()
	ms.ServeHTTP(readRec, httptest.NewRequest(http.MethodGet, "/api/v1/status", nil))
	if readRec.Code != http.StatusOK {
		t.Fatalf("read during overload = %d", readRec.Code)
	}

	close(release)
	wg.Wait()
	if got := ms.ShedStats(); got != 1 {
		t.Fatalf("ShedStats = %d, want 1", got)
	}
	// The admitted mutations both landed.
	var st struct {
		Users int `json:"users"`
	}
	rec = httptest.NewRecorder()
	ms.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/status", nil))
	decodeBody(t, rec, &st)
	if st.Users != 2 {
		t.Fatalf("users after release = %d, want 2", st.Users)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	s := newTestServer(t)
	sigCh := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	inFlight := make(chan struct{})
	finish := make(chan struct{})
	s.mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-finish
		writeJSON(w, r, http.StatusOK, map[string]string{"status": "done"})
	})

	runErr := make(chan error, 1)
	go func() {
		runErr <- Run("127.0.0.1:0", s.Hardened(HardenOptions{}), RunOptions{
			DrainTimeout: 5 * time.Second,
			Signals:      sigCh,
			OnReady:      func(a net.Addr) { ready <- "http://" + a.String() },
			OnDrain:      s.StartDrain,
			Logf:         func(string, ...interface{}) {},
		})
	}()
	base := <-ready

	// Park one request in flight, then deliver the shutdown signal.
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request = %d", resp.StatusCode)
			}
		}
		slowDone <- err
	}()
	<-inFlight
	sigCh <- syscall.SIGTERM

	// The drain must flip readiness before tearing anything down.
	deadline := time.After(2 * time.Second)
	for !s.Draining() {
		select {
		case <-deadline:
			t.Fatal("readiness never flipped after SIGTERM")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Run must still be draining: the in-flight request holds it open.
	select {
	case err := <-runErr:
		t.Fatalf("Run returned %v before in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(finish)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run after clean drain: %v", err)
	}
}

func TestRunDrainDeadlineExpires(t *testing.T) {
	s := newTestServer(t)
	sigCh := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	inFlight := make(chan struct{})
	finish := make(chan struct{})
	defer close(finish)
	s.mux.HandleFunc("/wedge", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-finish
	})
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run("127.0.0.1:0", s, RunOptions{
			DrainTimeout: 50 * time.Millisecond,
			Signals:      sigCh,
			OnReady:      func(a net.Addr) { ready <- "http://" + a.String() },
			Logf:         func(string, ...interface{}) {},
		})
	}()
	base := <-ready
	go func() {
		resp, err := http.Get(base + "/wedge")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-inFlight
	sigCh <- syscall.SIGTERM
	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
			t.Fatalf("Run = %v, want drain-incomplete error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not give up after the drain deadline")
	}
}
