package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"podium/internal/client"
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/server"
)

// ruleRecorder wraps a shard server and records the "rule" field of every
// select request body it serves, so the passthrough test can assert the
// coordinator forwarded the rule rather than silently falling back to the
// default objective.
type ruleRecorder struct {
	next http.Handler

	mu    sync.Mutex
	rules []string
}

func (rr *ruleRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/select" && r.Method == http.MethodPost {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Rule string `json:"rule"`
		}
		json.Unmarshal(body, &req)
		rr.mu.Lock()
		rr.rules = append(rr.rules, req.Rule)
		rr.mu.Unlock()
	}
	rr.next.ServeHTTP(w, r)
}

func (rr *ruleRecorder) seen() []string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return append([]string(nil), rr.rules...)
}

// TestCoordinatorRulePassthrough: a 2-shard cluster honors a per-request rule
// end to end — every shard's round-1 request carries the rule, the merged
// response is stamped with it, and the selection equals the in-process
// two-round plan running the same rule (users and score alike).
func TestCoordinatorRulePassthrough(t *testing.T) {
	ix, gcfg := buildGlobal(t, 300, 7)
	plan, err := NewPlan(ix, gcfg, Options{Shards: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	scfg := gcfg
	scfg.FixedBuckets = ix.BucketBoundaries()
	recorders := make([]*ruleRecorder, len(plan.Shards))
	urls := make([]string, len(plan.Shards))
	for i, sh := range plan.Shards {
		recorders[i] = &ruleRecorder{next: server.New("shard", sh.Repo, scfg, nil)}
		ts := httptest.NewServer(recorders[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	base := server.New("coordinator", ix.Repo(), gcfg, nil)
	NewCoordinator(base, urls, CoordinatorOptions{
		Resilience: client.ResilienceOptions{
			Retry: client.RetryOptions{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1},
		},
		Poll: 10 * time.Millisecond,
	})
	ts := httptest.NewServer(base)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, nil)

	repo := plan.Global.Repo()
	inst := groups.NewInstance(plan.Global, groups.WeightLBS, groups.CoverSingle, 5)
	for _, name := range core.RuleNames() {
		sel, err := c.Select(client.SelectRequest{Budget: 5, Rule: name})
		if err != nil {
			t.Fatalf("rule %s: %v", name, err)
		}
		rl := core.MustRule(name)
		wantRule := name
		if rl.IsDefault() {
			wantRule = "" // default responses stay unstamped, single-node parity
		}
		if sel.Rule != wantRule {
			t.Fatalf("rule %s: response stamped %q, want %q", name, sel.Rule, wantRule)
		}
		if sel.Degraded {
			t.Fatalf("rule %s: healthy fan-out reported degraded: %+v", name, sel.Shards)
		}

		// Every shard's round-1 request carried the rule.
		for i, rr := range recorders {
			seen := rr.seen()
			if len(seen) == 0 || seen[len(seen)-1] != name {
				t.Fatalf("rule %s: shard %d round-1 requests %v do not end with the rule", name, i, seen)
			}
		}

		// The HTTP merge equals the in-process two-round plan under the rule.
		local, err := plan.SelectRule(groups.WeightLBS, groups.CoverSingle, 5, rl, core.Options{})
		if err != nil {
			t.Fatalf("rule %s: local plan: %v", name, err)
		}
		if len(sel.Users) != len(local.Merged.Users) {
			t.Fatalf("rule %s: coordinator selected %d users, local plan %d", name, len(sel.Users), len(local.Merged.Users))
		}
		for i, u := range local.Merged.Users {
			if sel.Users[i].Name != repo.UserName(u) {
				t.Fatalf("rule %s pick %d: coordinator %q, local %q", name, i, sel.Users[i].Name, repo.UserName(u))
			}
		}
		// The response score is always the paper's coverage objective on the
		// selected set (Result.Score carries the rule's own credit sum) —
		// same convention as single-node buildSelectResponse.
		if want := inst.Score(local.Merged.Users); sel.Score != want {
			t.Fatalf("rule %s: coordinator score %v, want instance score %v", name, sel.Score, want)
		}
	}
}

// TestCoordinatorRuleErrors: the coordinator applies the same request gates
// as a single node — unknown rules and EBS-incompatible rules are envelope
// 400s, not degraded fan-outs or misleading 503s.
func TestCoordinatorRuleErrors(t *testing.T) {
	h := newCoordHarness(t, 200, 2)
	c := h.client(t)

	_, err := c.Select(client.SelectRequest{Budget: 3, Rule: "nope"})
	apiErr, ok := client.AsAPIError(err)
	if !ok || apiErr.Status != 400 || apiErr.Code != "invalid_argument" {
		t.Fatalf("unknown rule error = %v (%+v)", err, apiErr)
	}

	_, err = c.Select(client.SelectRequest{Budget: 3, Weights: "ebs", Rule: "harmonic"})
	apiErr, ok = client.AsAPIError(err)
	if !ok || apiErr.Status != 400 || apiErr.Code != "invalid_argument" {
		t.Fatalf("ebs-incompatible rule error = %v (%+v)", err, apiErr)
	}
}

// TestPlanSelectRuleMatchesDefault: SelectRule(nil) and SelectRule(coverage)
// reproduce the legacy Select path exactly — winners, candidates, and merge.
func TestPlanSelectRuleMatchesDefault(t *testing.T) {
	ix, gcfg := buildGlobal(t, 400, 11)
	plan, err := NewPlan(ix, gcfg, Options{Shards: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := plan.Select(groups.WeightLBS, groups.CoverSingle, 6, core.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rl := range []*core.Rule{nil, core.MustRule("coverage")} {
		got, err := plan.SelectRule(groups.WeightLBS, groups.CoverSingle, 6, rl, core.Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Merged.Users) != len(legacy.Merged.Users) || got.Merged.Score != legacy.Merged.Score {
			t.Fatalf("SelectRule(%v) merged %d users score %v, legacy %d users score %v",
				rl, len(got.Merged.Users), got.Merged.Score, len(legacy.Merged.Users), legacy.Merged.Score)
		}
		for i := range got.Merged.Users {
			if got.Merged.Users[i] != legacy.Merged.Users[i] {
				t.Fatalf("SelectRule(%v) pick %d = %d, legacy %d", rl, i, got.Merged.Users[i], legacy.Merged.Users[i])
			}
		}
	}
}
