package faults

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    Config
		wantErr bool
	}{
		{spec: "", want: Config{}},
		{spec: "0.06", want: Config{Error: 0.02, Reset: 0.02, Truncate: 0.02}},
		{spec: "error=0.02,reset=0.01,latency=0.05,latency_ms=3,seed=7",
			want: Config{Error: 0.02, Reset: 0.01, Latency: 0.05, LatencyMs: 3, Seed: 7}},
		{spec: "truncate=0.1,truncate_after=4", want: Config{Truncate: 0.1, TruncateAfter: 4}},
		{spec: "1.5", wantErr: true}, // split still sums to 1.5
		{spec: "error=0.9,reset=0.9", wantErr: true},
		{spec: "error=-0.1", wantErr: true},
		{spec: "bogus=1", wantErr: true},
		{spec: "error", wantErr: true},
		{spec: "error=x", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseSpec(%q): want error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestInjectorDeterministicSequence(t *testing.T) {
	cfg := Config{Seed: 11, Latency: 0.1, Error: 0.1, Reset: 0.1, Truncate: 0.1}
	draw := func() []Class {
		in := New(cfg)
		out := make([]Class, 500)
		for i := range out {
			out[i] = in.next()
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different fault sequences")
	}
	// A different seed must not replay the same schedule.
	other := New(Config{Seed: 12, Latency: 0.1, Error: 0.1, Reset: 0.1, Truncate: 0.1})
	c := make([]Class, 500)
	for i := range c {
		c[i] = other.next()
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical fault sequences")
	}
	// Empirical rates within loose tolerance of the configured 10% each.
	counts := New(cfg)
	for i := 0; i < 5000; i++ {
		counts.next()
	}
	got := counts.Counts()
	for name, n := range map[string]uint64{
		"latency": got.Latency, "error": got.Error, "reset": got.Reset, "truncate": got.Truncate,
	} {
		if n < 350 || n > 650 { // 10% of 5000 = 500
			t.Fatalf("%s fired %d/5000 times, want ≈500", name, n)
		}
	}
}

func TestWrapErrorFiresBeforeHandler(t *testing.T) {
	in := New(Config{Error: 1})
	handled := false
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/users", nil))
	if handled {
		t.Fatal("injected Error must reject before the handler (mutations would leak)")
	}
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("injected error = %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestWrapResetAbortsConnection(t *testing.T) {
	in := New(Config{Reset: 1})
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Fatal("handler ran through a reset")
	}))
	defer func() {
		if e := recover(); e != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", e)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Fatal("reset did not abort")
}

func TestWrapTruncateCutsResponseAndAborts(t *testing.T) {
	in := New(Config{Truncate: 1, TruncateAfter: 8})
	handled := false
	payload := `{"status":"a perfectly healthy response body"}`
	var rec *httptest.ResponseRecorder
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled = true
		fmt.Fprint(w, payload)
	}))
	func() {
		defer func() {
			if e := recover(); e != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want abort after truncation", e)
			}
		}()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		t.Fatal("truncated response did not abort")
	}()
	if !handled {
		t.Fatal("Truncate must let the handler run (applied-but-unacknowledged)")
	}
	if got := rec.Body.String(); got != payload[:8] {
		t.Fatalf("body = %q, want the 8-byte prefix %q", got, payload[:8])
	}
}

func TestWrapLatencyDelaysThenServes(t *testing.T) {
	in := New(Config{Latency: 1, LatencyMs: 250})
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept = d }
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("latency fault changed the response: %d", rec.Code)
	}
	if slept != 250*time.Millisecond {
		t.Fatalf("slept %v, want 250ms", slept)
	}
}

func TestRoundTripperInjectsClientSideFaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("x", 64))
	}))
	defer ts.Close()

	get := func(in *Injector) (*http.Response, error) {
		c := &http.Client{Transport: in.RoundTripper(nil)}
		return c.Get(ts.URL)
	}

	// Error: a synthesized 503, nothing on the wire needed.
	resp, err := get(New(Config{Error: 1}))
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected client error: %v / %+v", err, resp)
	}
	resp.Body.Close()

	// Reset: a transport error, no response at all.
	if _, err := get(New(Config{Reset: 1})); err == nil {
		t.Fatal("injected reset returned a response")
	}

	// Truncate: the real exchange happens but the body tears mid-read.
	resp, err = get(New(Config{Truncate: 1, TruncateAfter: 16}))
	if err != nil {
		t.Fatalf("truncated exchange failed outright: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("read %d bytes with err %v, want io.ErrUnexpectedEOF", len(data), err)
	}
	if len(data) != 16 {
		t.Fatalf("read %d bytes before the tear, want 16", len(data))
	}
}
