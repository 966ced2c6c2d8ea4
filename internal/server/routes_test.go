package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteTableGolden pins the API surface: every endpoint, its path, and
// its method constraints. A new endpoint (or a changed constraint) must
// update this table deliberately.
func TestRouteTableGolden(t *testing.T) {
	want := [][3]string{
		{"status", "/api/v1/status", "GET"},
		{"groups", "/api/v1/groups", "GET"},
		{"configurations", "/api/v1/configurations", "GET"},
		{"select", "/api/v1/select", "POST"},
		{"rules", "/api/v1/rules", "GET"},
		{"query", "/api/v1/query", "POST"},
		{"distribution", "/api/v1/distribution", "GET"},
		{"campaigns", "/api/v1/campaigns", "GET, POST"},
		{"campaign", "/api/v1/campaigns/{id}", "GET"},
		{"campaign-cancel", "/api/v1/campaigns/{id}/cancel", "POST"},
		{"metrics", "/api/v1/metrics", "GET"},
		{"healthz", "/healthz", "any"},
		{"readyz", "/readyz", "any"},
		{"index", "/", "any"},
	}
	got := newTestServer(t).Routes()
	if len(got) != len(want) {
		t.Fatalf("route table has %d rows, want %d:\n%v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("route %d = %v, want %v", i, got[i], w)
		}
	}
}

// errEnvelope decodes and validates the unified error body, returning the
// machine-readable code.
func errEnvelope(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Status  int    `json:"status"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not an envelope: %v\n%s", err, rec.Body.String())
	}
	if body.Error.Code == "" || body.Error.Message == "" || body.Error.Status != rec.Code {
		t.Fatalf("bad envelope for HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return body.Error.Code
}

// TestMethodNotAllowed sends a wrong-method request to every constrained
// route and requires 405 with the precise Allow header and the unified
// envelope.
func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t)
	for _, row := range s.Routes() {
		if row[2] == "any" {
			continue
		}
		path := strings.ReplaceAll(row[1], "{id}", "1")
		rec := doJSON(t, s, http.MethodDelete, path, "", nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s = %d, want 405", path, rec.Code)
			continue
		}
		if allow := rec.Header().Get("Allow"); allow != row[2] {
			t.Errorf("DELETE %s: Allow = %q, want %q", path, allow, row[2])
		}
		if code := errEnvelope(t, rec); code != "method_not_allowed" {
			t.Errorf("DELETE %s: envelope code = %q", path, code)
		}
	}
}

// TestErrorEnvelopeEverywhere forces each distinct error class and checks
// the envelope shape and machine-readable code.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodGet, "/api/v1/nope", "", 404, "not_found"},
		{http.MethodGet, "/api/v1/status/", "", 404, "not_found"}, // trailing slash is no route
		{http.MethodGet, "/api/status", "", 404, "not_found"},     // pre-v1 paths do not route
		{http.MethodPost, "/api/select", `{"budget":2}`, 404, "not_found"},
		{http.MethodPost, "/api/v1/select", `{"bogus_field":1}`, 400, "invalid_argument"},
		{http.MethodPost, "/api/v1/select", `{bad json`, 400, "invalid_argument"},
		{http.MethodPost, "/api/v1/select", `{"weights":"nope"}`, 400, "invalid_argument"},
		{http.MethodPost, "/api/v1/select", `{"rule":"nope"}`, 400, "invalid_argument"},
		{http.MethodPost, "/api/v1/query", `{"query":"SELECT nonsense"}`, 400, "invalid_argument"},
		{http.MethodGet, "/api/v1/distribution?prop=bogus", "", 404, "not_found"},
		{http.MethodGet, "/api/v1/campaigns/999", "", 404, "not_found"},
		{http.MethodGet, "/api/v1/campaigns/1x", "", 404, "not_found"},
		{http.MethodGet, "/api/v1/campaigns/007", "", 404, "not_found"}, // non-canonical id
		{http.MethodGet, "/api/v1/campaigns/1/cancel/extra", "", 404, "not_found"},
		{http.MethodDelete, "/api/v1/groups", "", 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		rec := doJSON(t, s, tc.method, tc.path, tc.body, nil)
		if rec.Code != tc.status {
			t.Errorf("%s %s = %d, want %d: %s", tc.method, tc.path, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if code := errEnvelope(t, rec); code != tc.code {
			t.Errorf("%s %s: envelope code = %q, want %q", tc.method, tc.path, code, tc.code)
		}
	}
}

// TestMetricsEndpoint checks that /api/v1/metrics serves parseable
// Prometheus text exposition covering all four metric families after
// traffic has exercised the server and the engine.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	// Generate traffic: a feedback-free select, a feedback select, a 404
	// and a 405.
	doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"feedback":{"priority":[0]}}`, nil)
	doJSON(t, s, http.MethodGet, "/api/v1/nope", "", nil)
	doJSON(t, s, http.MethodDelete, "/api/v1/select", "", nil)

	rec := doJSON(t, s, http.MethodGet, "/api/v1/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	text := rec.Body.String()

	// Parseability: every non-comment line is `name{labels} value` or
	// `name value`, and every metric name is announced by a TYPE line.
	typed := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d not `series value`: %q", ln+1, line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !typed[name] && !typed[base] {
			t.Fatalf("line %d: series %q has no TYPE line", ln+1, line)
		}
	}

	// Family coverage: server, core, campaign and client metrics all appear
	// on one scrape.
	for _, want := range []string{
		`podium_http_requests_total{code="200",method="POST",route="select"} 2`,
		`podium_http_requests_total{code="404",method="GET",route="unmatched"} 1`,
		`podium_http_requests_total{code="405",method="DELETE",route="select"} 1`,
		"podium_http_request_duration_seconds_bucket",
		"podium_snapshot_epoch 0",
		"podium_engine_selections_total",
		`podium_engine_stage_seconds_count{stage="argmax"}`,
		"podium_campaign_rounds_total 0",
		"podium_client_retries_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// The engine ran at least once (both selects miss the cache).
	if !strings.Contains(text, "podium_engine_selections_total 1") &&
		!strings.Contains(text, "podium_engine_selections_total 2") {
		t.Errorf("engine selections not counted:\n%s", grepLines(text, "podium_engine_selections_total"))
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestTraceHeaderAttachesSpans checks that X-Podium-Trace: 1 (and ?trace=1)
// attach a span tree to select/query responses, and that untraced responses
// carry no trace key at all.
func TestTraceHeaderAttachesSpans(t *testing.T) {
	s := newTestServer(t)
	type traced struct {
		Trace *struct {
			Name     string  `json:"name"`
			Ms       float64 `json:"ms"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children,omitempty"`
		} `json:"trace"`
	}

	// Untraced: no trace key, even on the cached path.
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	if strings.Contains(rec.Body.String(), `"trace"`) {
		t.Fatalf("untraced select body has a trace key: %s", rec.Body.String())
	}

	// Header form, engine path.
	req := httptest.NewRequest(http.MethodPost, "/api/v1/select",
		strings.NewReader(`{"budget":2,"feedback":{"priority":[0]}}`))
	req.Header.Set("X-Podium-Trace", "1")
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, req)
	var tr traced
	if err := json.Unmarshal(hrec.Body.Bytes(), &tr); err != nil || tr.Trace == nil {
		t.Fatalf("traced select: %v: %s", err, hrec.Body.String())
	}
	if tr.Trace.Name != "select" || len(tr.Trace.Children) == 0 {
		t.Fatalf("trace tree = %+v", tr.Trace)
	}
	names := map[string]bool{}
	for _, c := range tr.Trace.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"decode", "greedy", "report"} {
		if !names[want] {
			t.Errorf("trace missing child %q (have %v)", want, names)
		}
	}

	// Query form (?trace=1), feedback-free select: the span tree is attached
	// without disturbing the cached, untraced response.
	rec = doJSON(t, s, http.MethodPost, "/api/v1/select?trace=1", `{"budget":2}`, nil)
	var tr2 traced
	if err := json.Unmarshal(rec.Body.Bytes(), &tr2); err != nil || tr2.Trace == nil {
		t.Fatalf("?trace=1 select: %v: %s", err, rec.Body.String())
	}
	rec = doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	if strings.Contains(rec.Body.String(), `"trace"`) {
		t.Fatalf("trace leaked into the cached response: %s", rec.Body.String())
	}

	// Query endpoint, header form.
	req = httptest.NewRequest(http.MethodPost, "/api/v1/query",
		strings.NewReader(`{"query":"SELECT 2 USERS"}`))
	req.Header.Set("X-Podium-Trace", "1")
	hrec = httptest.NewRecorder()
	s.ServeHTTP(hrec, req)
	var tr3 traced
	if err := json.Unmarshal(hrec.Body.Bytes(), &tr3); err != nil || tr3.Trace == nil {
		t.Fatalf("traced query: %v: %s", err, hrec.Body.String())
	}
	if tr3.Trace.Name != "query" {
		t.Fatalf("query trace root = %q", tr3.Trace.Name)
	}
}

// TestObsDisabledStillServes flips instrumentation off and checks dispatch
// still routes, 405s and 404s identically — the benchmark's comparison mode
// must not change observable behavior.
func TestObsDisabledStillServes(t *testing.T) {
	s := newTestServer(t)
	s.SetObsEnabled(false)
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/status", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("status with obs off = %d", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodDelete, "/api/v1/select", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("405 with obs off = %d", rec.Code)
	}
	rec := doJSON(t, s, http.MethodGet, "/api/nope", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("404 with obs off = %d", rec.Code)
	}
	// Counters must not have moved (precreated series exist but stay 0).
	mrec := doJSON(t, s, http.MethodGet, "/api/v1/metrics", "", nil)
	text := mrec.Body.String()
	if want := `podium_http_requests_total{code="200",method="GET",route="status"} 0`; !strings.Contains(text, want) {
		t.Fatalf("obs-off requests were counted; want %q:\n%s", want, grepLines(text, `route="status"`))
	}
	// The 405 and the unmatched 404 were not counted either: their counter
	// series are created lazily on first count, so with obs off they must
	// not exist (the unmatched latency histogram is precreated but stays 0).
	for _, absent := range []string{`method="DELETE"`, `requests_total{code="404",method="GET",route="unmatched"}`} {
		if strings.Contains(text, absent) {
			t.Fatalf("obs-off error was counted:\n%s", grepLines(text, absent))
		}
	}
	if want := `podium_http_request_duration_seconds_count{route="unmatched"} 0`; !strings.Contains(text, want) {
		t.Fatalf("obs-off 404 recorded latency:\n%s", grepLines(text, "unmatched"))
	}
}

// TestIndexListsRoutes checks the index page renders the v1 route table.
func TestIndexListsRoutes(t *testing.T) {
	s := newTestServer(t)
	rec := doJSON(t, s, http.MethodGet, "/", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"/api/v1/select", "/api/v1/metrics", "/api/v1/campaigns/{id}"} {
		if !strings.Contains(body, want) {
			t.Errorf("index page missing %q", want)
		}
	}
}

// TestPathParamTrailingGarbage pins the path-matching semantics that replaced
// manual prefix trimming.
func TestPathParamTrailingGarbage(t *testing.T) {
	cases := []struct {
		pattern, path string
		match         bool
		params        map[string]string
	}{
		{"/api/v1/campaigns/{id}", "/api/v1/campaigns/17", true, map[string]string{"id": "17"}},
		{"/api/v1/campaigns/{id}", "/api/v1/campaigns/17/", false, nil},
		{"/api/v1/campaigns/{id}", "/api/v1/campaigns//", false, nil},
		{"/api/v1/campaigns/{id}", "/api/v1/campaigns", false, nil},
		{"/api/v1/campaigns/{id}/cancel", "/api/v1/campaigns/17/cancel", true, map[string]string{"id": "17"}},
		{"/api/v1/campaigns/{id}/cancel", "/api/v1/campaigns/17/cancelX", false, nil},
		{"/api/v1/status", "/api/v1/status/", false, nil},
		{"/api/v1/status", "/api/v1/status", true, nil},
	}
	for _, tc := range cases {
		ok, params := matchSegs(parseSegs(tc.pattern), tc.path)
		if ok != tc.match {
			t.Errorf("match(%q, %q) = %v, want %v", tc.pattern, tc.path, ok, tc.match)
			continue
		}
		if tc.match {
			for k, v := range tc.params {
				if params[k] != v {
					t.Errorf("match(%q, %q): param %s = %q, want %q", tc.pattern, tc.path, k, params[k], v)
				}
			}
		}
	}
}

// TestEnablePprofMounts checks the optional pprof mount answers through the
// route-table fallback.
func TestEnablePprofMounts(t *testing.T) {
	s := newTestServer(t)
	if rec := doJSON(t, s, http.MethodGet, "/debug/pprof/", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof before enable = %d, want 404", rec.Code)
	}
	s.EnablePprof()
	if rec := doJSON(t, s, http.MethodGet, "/debug/pprof/", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("pprof index = %d", rec.Code)
	}
}
