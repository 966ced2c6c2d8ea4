package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/synth"
)

// TestCacheMissReportsEngineStages: a select-cache miss runs the greedy loop
// through the persistent selector state, and that run reports its stages —
// for the default rule and for a non-default one alike — so the engine
// counters move on the path that serves steady-state traffic.
func TestCacheMissReportsEngineStages(t *testing.T) {
	s := newTestServer(t)
	for _, body := range []string{`{"budget":2}`, `{"budget":2,"rule":"harmonic"}`} {
		if rec := doJSON(t, s, http.MethodPost, "/api/v1/select", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("select %s = %d: %s", body, rec.Code, rec.Body.String())
		}
	}
	rec := doJSON(t, s, http.MethodGet, "/api/v1/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`podium_select_cache_requests_total{result="miss",rule="coverage"} 1`,
		`podium_select_cache_requests_total{result="miss",rule="harmonic"} 1`,
		"podium_engine_selections_total 2",
		`podium_engine_stage_seconds_count{stage="init"} 2`,
		`podium_engine_stage_seconds_count{stage="argmax"} 2`,
		`podium_engine_stage_seconds_count{stage="retract"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s\n%s", want, grepLines(body, "podium_engine_selections_total"), grepLines(body, "podium_engine_stage_seconds_count"))
		}
	}
}

// TestSelectEBSOverflowRejected: on an index with thousands of groups the EBS
// weights (B+1)^rank overflow float64, so select and query answer 400 naming
// the overflow instead of failing to encode +Inf with a 500 — whatever the
// rule and with or without feedback. The paper example's EBS selects stay
// 200 with the bytes they had before the check existed.
func TestSelectEBSOverflowRejected(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(2000)).Repo
	big := New("big", repo, groups.Config{K: 3}, nil)
	for _, tc := range []struct{ path, body string }{
		{"/api/v1/select", `{"weights":"EBS"}`},
		{"/api/v1/select", `{"weights":"EBS","rule":"maxcov"}`},
		{"/api/v1/select", `{"weights":"EBS","feedback":{"priority":[0]}}`},
		{"/api/v1/select?trace=1", `{"weights":"EBS"}`},
		{"/api/v1/query", `{"query":"SELECT 8 USERS WEIGHTS EBS"}`},
	} {
		rec := doJSON(t, big, http.MethodPost, tc.path, tc.body, nil)
		if rec.Code != http.StatusBadRequest || errEnvelope(t, rec) != codeInvalidArgument ||
			!strings.Contains(rec.Body.String(), "overflow") {
			t.Fatalf("%s %s = %d, want 400 naming the overflow: %s", tc.path, tc.body, rec.Code, rec.Body.String())
		}
	}
	if rec := doJSON(t, big, http.MethodPost, "/api/v1/select", `{"weights":"LBS"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("LBS select on the large index = %d: %s", rec.Code, rec.Body.String())
	}

	paper := newTestServer(t)
	for body, want := range map[string]string{
		`{"budget":2,"weights":"EBS"}`:                                "1364785c97d4dfa16cb08844f0bb5cf38673912eabe40b868bbe1214b98d462e",
		`{"budget":3,"weights":"EBS","rule":"maxcov"}`:                "27c009da64e22f0ccecae88a7d6bb2098dcc96a771a2fbc84a0dedca1da1164f",
		`{"budget":2,"weights":"EBS","feedback":{"priority":[0, 3]}}`: "d74877beab668d7c221e7a22c914529f81020443796ae2e3d3113b1b2de26782",
	} {
		rec := doJSON(t, paper, http.MethodPost, "/api/v1/select", body, nil)
		sum := sha256.Sum256(rec.Body.Bytes())
		if rec.Code != http.StatusOK || hex.EncodeToString(sum[:]) != want {
			t.Errorf("paper EBS select %s = %d, body sha256 %x, want %s:\n%s", body, rec.Code, sum, want, rec.Body.String())
		}
	}
}

// TestTracedSelectsCompute: a traced feedback-free select is diagnostic, so
// it runs the engine every time — both of two identical traced selects
// carry the engine's stages — with the select cache on or off. Its body is
// the untraced body plus the trace.
func TestTracedSelectsCompute(t *testing.T) {
	for _, cached := range []bool{true, false} {
		s := newTestServer(t)
		s.SetSelectCacheEnabled(cached)
		bodies := []string{`{"budget":2}`, `{"budget":2}`}
		for k := 1; k <= 5; k++ {
			bodies = append(bodies, fmt.Sprintf(`{"budget":2,"top_k":%d}`, k))
		}
		for i, body := range bodies {
			rec := doJSON(t, s, http.MethodPost, "/api/v1/select?trace=1", body, nil)
			var tr struct {
				Trace obs.SpanJSON `json:"trace"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("cache %v: traced select %d = %d (%v): %s", cached, i, rec.Code, err, rec.Body.String())
			}
			stages := map[string]bool{}
			for _, c := range tr.Trace.Children {
				if c.Name == "select" {
					for _, st := range c.Children {
						stages[st.Name] = true
					}
				}
			}
			for _, want := range []string{"init", "argmax", "retract"} {
				if !stages[want] {
					t.Errorf("cache %v: traced select %d: select span lacks engine stage %q: %s", cached, i, want, rec.Body.String())
				}
			}
			plain := doJSON(t, s, http.MethodPost, "/api/v1/select", body, nil).Body.String()
			head := strings.TrimSuffix(plain, "}\n") + `,"trace":`
			if !strings.HasPrefix(rec.Body.String(), head) {
				t.Errorf("cache %v: traced body %d is not the untraced body plus its trace:\n%s\n%s", cached, i, rec.Body.String(), plain)
			}
		}
	}
}
