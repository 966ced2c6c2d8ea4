package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
)

// TestRulesEndpoint: GET /api/v1/rules mirrors the core registry row for row —
// same names in the same wire order, same descriptions, exactly one row
// marked default and it is "coverage".
func TestRulesEndpoint(t *testing.T) {
	s := newTestServer(t)
	var rows []struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Default     bool   `json:"default"`
	}
	rec := doJSON(t, s, http.MethodGet, "/api/v1/rules", "", &rows)
	if rec.Code != http.StatusOK {
		t.Fatalf("rules = %d: %s", rec.Code, rec.Body.String())
	}
	reg := core.Rules()
	if len(rows) != len(reg) {
		t.Fatalf("rules endpoint returned %d rows, registry has %d", len(rows), len(reg))
	}
	defaults := 0
	for i, row := range rows {
		if row.Name != reg[i].Name() || row.Description != reg[i].Description() {
			t.Fatalf("row %d = %+v, registry has %s / %s", i, row, reg[i].Name(), reg[i].Description())
		}
		if row.Default {
			defaults++
			if row.Name != "coverage" {
				t.Fatalf("default rule reported as %q, want coverage", row.Name)
			}
		}
	}
	if defaults != 1 {
		t.Fatalf("%d rows marked default, want exactly 1", defaults)
	}
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/rules", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST rules = %d, want 405", rec.Code)
	}
}

// TestSelectDefaultRuleByteIdentity: naming the default rule explicitly — in
// any case — must serve byte-identical responses to omitting the field, and
// the default response must not grow a "rule" key (the wire-compat guarantee
// this redesign is gated on). A non-default rule, by contrast, must announce
// itself.
func TestSelectDefaultRuleByteIdentity(t *testing.T) {
	s := newTestServer(t)
	base := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	if base.Code != http.StatusOK {
		t.Fatalf("select = %d: %s", base.Code, base.Body.String())
	}
	if bytes.Contains(base.Body.Bytes(), []byte(`"rule"`)) {
		t.Fatal("default select response contains a rule field")
	}
	for _, spelled := range []string{"coverage", "Coverage", "COVERAGE"} {
		rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"`+spelled+`"}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("select rule=%s = %d: %s", spelled, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), base.Body.Bytes()) {
			t.Fatalf("rule=%q served different bytes than the bare default:\n%s\nvs\n%s",
				spelled, rec.Body.String(), base.Body.String())
		}
	}
	var got struct {
		Rule string `json:"rule"`
	}
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"harmonic"}`, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("select rule=harmonic = %d: %s", rec.Code, rec.Body.String())
	}
	if got.Rule != "harmonic" {
		t.Fatalf("harmonic response rule field = %q, want harmonic", got.Rule)
	}
}

// TestSelectUnknownRule: an unregistered rule is a 400 in the unified error
// envelope, and the message lists every registered rule so the client can
// self-correct without a second round trip.
func TestSelectUnknownRule(t *testing.T) {
	s := newTestServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"nope"}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown rule = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if code := errEnvelope(t, rec); code != "invalid_argument" {
		t.Fatalf("unknown rule error code = %q", code)
	}
	var env struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	decodeBody(t, rec, &env)
	if !strings.Contains(env.Error.Message, `"nope"`) {
		t.Fatalf("error message does not echo the bad rule: %s", env.Error.Message)
	}
	for _, name := range core.RuleNames() {
		if !strings.Contains(env.Error.Message, name) {
			t.Fatalf("error message does not list registered rule %q: %s", name, env.Error.Message)
		}
	}
}

// TestSelectCacheRuleCollision: the cross-rule collision regression — the same
// (weights, coverage, budget, topK) under different rules must be distinct
// cache entries. Serving rule A's pre-marshaled bytes for rule B would be
// silent wrong answers; here every rule's repeat must reproduce its own first
// response and score a hit.
func TestSelectCacheRuleCollision(t *testing.T) {
	s := newTestServer(t)
	names := core.RuleNames()
	first := make(map[string][]byte, len(names))
	for _, name := range names {
		rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"`+name+`"}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("select rule=%s = %d: %s", name, rec.Code, rec.Body.String())
		}
		first[name] = append([]byte(nil), rec.Body.Bytes()...)
	}
	// Non-default responses carry their rule name, so any cross-rule
	// collision shows up as a byte mismatch on the repeat pass.
	before := s.SelectCacheStats()
	for _, name := range names {
		rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"`+name+`"}`, nil)
		if !bytes.Equal(rec.Body.Bytes(), first[name]) {
			t.Fatalf("repeat select rule=%s changed bytes:\n%s\nvs\n%s", name, rec.Body.String(), first[name])
		}
	}
	after := s.SelectCacheStats()
	if hits := after.Hits - before.Hits; hits != uint64(len(names)) {
		t.Fatalf("repeat selects scored %d hits, want %d", hits, len(names))
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if bytes.Equal(first[a], first[b]) {
				t.Fatalf("rules %s and %s served identical bytes — cache entries collided", a, b)
			}
		}
	}
}

// TestSelectCacheRuleMetrics: the select-cache request counter is labeled by
// rule, so per-rule hit rates are observable on /api/v1/metrics.
func TestSelectCacheRuleMetrics(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 2; i++ {
		doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
		doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"harmonic"}`, nil)
	}
	rec := doJSON(t, s, http.MethodGet, "/api/v1/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`podium_select_cache_requests_total{result="miss",rule="coverage"} 1`,
		`podium_select_cache_requests_total{result="hit",rule="coverage"} 1`,
		`podium_select_cache_requests_total{result="miss",rule="harmonic"} 1`,
		`podium_select_cache_requests_total{result="hit",rule="harmonic"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSelectRuleEBSGate: EBS weights run exact rank arithmetic that only the
// coverage credit schedule (and maxcov, which never reads weights) supports —
// the incompatible rules must 400 up front, not mis-select.
func TestSelectRuleEBSGate(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		rule string
		code int
	}{
		{"coverage", http.StatusOK},
		{"maxcov", http.StatusOK},
		{"harmonic", http.StatusBadRequest},
		{"fairness-floor", http.StatusBadRequest},
	} {
		rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"weights":"ebs","rule":"`+tc.rule+`"}`, nil)
		if rec.Code != tc.code {
			t.Fatalf("ebs select rule=%s = %d, want %d: %s", tc.rule, rec.Code, tc.code, rec.Body.String())
		}
		if tc.code == http.StatusBadRequest {
			if code := errEnvelope(t, rec); code != "invalid_argument" {
				t.Fatalf("ebs gate error code = %q", code)
			}
			if !strings.Contains(rec.Body.String(), "EBS") {
				t.Fatalf("ebs gate message does not mention EBS: %s", rec.Body.String())
			}
		}
	}
}

// TestSelectRuleFeedbackGate: feedback refinement is defined on the coverage
// objective only; combining it with another rule is a 400, not a silently
// coverage-scored selection labeled with the other rule's name.
func TestSelectRuleFeedbackGate(t *testing.T) {
	s := newTestServer(t)
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select",
		`{"budget":2,"rule":"maxcov","feedback":{"priority":[0],"standard_explicit":true}}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("feedback+maxcov = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if code := errEnvelope(t, rec); code != "invalid_argument" {
		t.Fatalf("feedback gate error code = %q", code)
	}
}

// TestSelectConfigRule: a named configuration can pin a rule; an explicit
// request rule still wins over the configured one.
func TestSelectConfigRule(t *testing.T) {
	repo := profile.PaperExample()
	cfg := groups.Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3}
	s := New("paper-example", repo, cfg, []NamedConfig{{
		Name:    "Spread",
		Budget:  2,
		Weights: "LBS",
		Rule:    "maxcov",
	}})
	var got struct {
		Rule string `json:"rule"`
	}
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"config":"Spread"}`, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("config select = %d: %s", rec.Code, rec.Body.String())
	}
	if got.Rule != "maxcov" {
		t.Fatalf("config select rule = %q, want maxcov", got.Rule)
	}
	got.Rule = ""
	rec = doJSON(t, s, http.MethodPost, "/api/v1/select", `{"config":"Spread","rule":"harmonic"}`, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("config override select = %d: %s", rec.Code, rec.Body.String())
	}
	if got.Rule != "harmonic" {
		t.Fatalf("explicit rule did not override config: got %q", got.Rule)
	}
}

// TestSelectRuleMutationInvalidation: non-default rules ride the same
// watermark cache as the default — a selection-relevant write invalidates
// every rule's entry, and the repaired responses match the cache-disabled
// baseline byte for byte.
func TestSelectRuleMutationInvalidation(t *testing.T) {
	ms, _ := newMutable(t)
	for _, body := range []string{
		`{"name":"A","properties":{"p":0.05,"q":0.9}}`,
		`{"name":"B","properties":{"p":0.5,"q":0.2}}`,
		`{"name":"C","properties":{"p":0.95}}`,
		`{"name":"D","properties":{"q":0.55}}`,
	} {
		if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("seed: %d: %s", rec.Code, rec.Body.String())
		}
	}
	sel := func(rule string) []byte {
		t.Helper()
		rec := doMutable(t, ms, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"`+rule+`"}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("select rule=%s: %d: %s", rule, rec.Code, rec.Body.String())
		}
		return append([]byte(nil), rec.Body.Bytes()...)
	}
	rules := []string{"harmonic", "fairness-floor"}
	for _, rl := range rules {
		sel(rl)
	}
	if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"E","properties":{"p":0.4,"q":0.6}}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("late user add: %d: %s", rec.Code, rec.Body.String())
	}
	for _, rl := range rules {
		cached := sel(rl)
		ms.SetSelectCacheEnabled(false)
		baseline := sel(rl)
		ms.SetSelectCacheEnabled(true)
		if !bytes.Equal(cached, baseline) {
			t.Fatalf("rule %s post-write cache response diverged from baseline:\ncached:   %s\nbaseline: %s",
				rl, cached, baseline)
		}
	}
}

// TestSelectRuleConcurrent: concurrent selects under every rule at once must
// stay correct — each response carries its own rule's bytes (rule-keyed cache
// entries never bleed across rules) and the shared per-rule metric children
// and selector states behind sync.Map survive the race detector.
func TestSelectRuleConcurrent(t *testing.T) {
	s := newTestServer(t)
	names := core.RuleNames()

	// Serial baseline per rule, then hammer the same requests concurrently.
	want := make(map[string][]byte, len(names))
	for _, rl := range names {
		rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"rule":"`+rl+`"}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("rule %s baseline = %d: %s", rl, rec.Code, rec.Body.String())
		}
		want[rl] = append([]byte(nil), rec.Body.Bytes()...)
	}

	const perRule = 8
	errc := make(chan error, len(names)*perRule)
	var wg sync.WaitGroup
	for _, rl := range names {
		for i := 0; i < perRule; i++ {
			wg.Add(1)
			go func(rl string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/api/v1/select",
					strings.NewReader(`{"budget":2,"rule":"`+rl+`"}`))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("rule %s: status %d: %s", rl, rec.Code, rec.Body.String())
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[rl]) {
					errc <- fmt.Errorf("rule %s: concurrent response diverged from baseline:\n%s\nvs\n%s",
						rl, rec.Body.String(), want[rl])
				}
			}(rl)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
