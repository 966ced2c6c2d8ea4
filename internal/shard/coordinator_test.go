package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"podium/internal/client"
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/server"
)

// coordHarness is a coordinator over httptest-backed shard servers built
// from one partitioned population; base is the server it registered on,
// which serves the coordinator's endpoints.
type coordHarness struct {
	plan    *Plan
	base    *server.Server
	servers []*httptest.Server
}

func newCoordHarness(t *testing.T, users, shards int) *coordHarness {
	t.Helper()
	ix, gcfg := buildGlobal(t, users, 5)
	plan, err := NewPlan(ix, gcfg, Options{Shards: shards, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := &coordHarness{plan: plan}
	urls := make([]string, len(plan.Shards))
	// Shard servers pin the global bucket boundaries, like the CLI's shard
	// mode: re-deriving cuts from a shard's local score distribution would
	// misalign its groups with the coordinator's merge instance.
	scfg := gcfg
	scfg.FixedBuckets = ix.BucketBoundaries()
	for i, sh := range plan.Shards {
		srv := server.New("shard", sh.Repo, scfg, nil)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		h.servers = append(h.servers, ts)
		urls[i] = ts.URL
	}
	h.base = server.New("coordinator", ix.Repo(), gcfg, nil)
	NewCoordinator(h.base, urls, CoordinatorOptions{
		Resilience: client.ResilienceOptions{
			Retry: client.RetryOptions{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1},
		},
		Poll: 10 * time.Millisecond,
	})
	return h
}

func (h *coordHarness) client(t *testing.T) *client.Client {
	t.Helper()
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)
	return client.New(ts.URL, nil)
}

// TestCoordinatorMergesShardWinners: a fanned-out select equals the local
// two-round plan bit for bit, reports every shard healthy with its epoch,
// and the client's transparent Select decodes it.
func TestCoordinatorMergesShardWinners(t *testing.T) {
	h := newCoordHarness(t, 300, 3)
	c := h.client(t)

	sel, err := c.Select(client.SelectRequest{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Degraded {
		t.Fatalf("healthy fan-out reported degraded: %+v", sel.Shards)
	}
	if len(sel.Shards) != 3 {
		t.Fatalf("shard reports = %d, want 3", len(sel.Shards))
	}
	for _, sh := range sel.Shards {
		if !sh.OK || sh.Winners == 0 {
			t.Fatalf("shard report not healthy: %+v", sh)
		}
		// Immutable shard servers publish epoch 0; the field's presence is
		// what matters here (mutable shards surface real epochs — see the
		// chaos suite).
	}

	// The HTTP merge equals the local executor's two-round result.
	local, err := h.plan.Select(groups.WeightLBS, groups.CoverSingle, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Users) != len(local.Merged.Users) {
		t.Fatalf("coordinator selected %d users, local plan %d", len(sel.Users), len(local.Merged.Users))
	}
	repo := h.plan.Global.Repo()
	for i, u := range local.Merged.Users {
		if sel.Users[i].Name != repo.UserName(u) {
			t.Fatalf("pick %d: coordinator %q, local %q", i, sel.Users[i].Name, repo.UserName(u))
		}
	}
	if sel.Score != local.Merged.Score {
		t.Fatalf("coordinator score %v, local %v", sel.Score, local.Merged.Score)
	}
}

// TestCoordinatorDegradedMerge: killing a shard mid-operation degrades the
// response — fewer candidates, degraded flag, per-shard error — but stays a
// successful selection over the survivors.
func TestCoordinatorDegradedMerge(t *testing.T) {
	h := newCoordHarness(t, 300, 3)
	c := h.client(t)
	h.servers[1].Close() // shard down before the wave

	sel, err := c.Select(client.SelectRequest{Budget: 5})
	if err != nil {
		t.Fatalf("degraded select must succeed, got %v", err)
	}
	if !sel.Degraded {
		t.Fatal("response not marked degraded with a shard down")
	}
	okShards, failed := 0, 0
	for _, sh := range sel.Shards {
		if sh.OK {
			okShards++
		} else {
			failed++
			if sh.Error == "" {
				t.Fatalf("failed shard carries no error: %+v", sh)
			}
		}
	}
	if okShards != 2 || failed != 1 {
		t.Fatalf("shard reports ok=%d failed=%d, want 2/1", okShards, failed)
	}
	if len(sel.Users) == 0 || sel.Score <= 0 {
		t.Fatalf("degraded selection is empty: %d users score %v", len(sel.Users), sel.Score)
	}
}

// TestCoordinatorAllShardsDown: total loss is the one case that errors.
func TestCoordinatorAllShardsDown(t *testing.T) {
	h := newCoordHarness(t, 120, 2)
	c := h.client(t)
	for _, ts := range h.servers {
		ts.Close()
	}
	if _, err := c.Select(client.SelectRequest{Budget: 3}); err == nil {
		t.Fatal("select succeeded with every shard down")
	}
}

// TestCoordinatorRejectsShardLocalConcepts: feedback and named configs carry
// shard-local group ids and must 400, not silently mis-merge.
func TestCoordinatorRejectsShardLocalConcepts(t *testing.T) {
	h := newCoordHarness(t, 120, 2)
	c := h.client(t)
	if _, err := c.Select(client.SelectRequest{
		Budget:   3,
		Feedback: server.FeedbackJSON{MustHave: []int{1}},
	}); err == nil {
		t.Fatal("feedback-carrying select accepted by coordinator")
	}
	if _, err := c.Select(client.SelectRequest{Budget: 3, Config: "paper"}); err == nil {
		t.Fatal("named-config select accepted by coordinator")
	}
}

// TestCoordinatorClampsParallelism: the coordinator bounds a request's
// parallelism to [0, NumCPU] before its merge, as the single-node handler
// does, so a negative or huge worker count returns the body of parallelism
// 0. With 200 users no group reaches the engine's 256-member sharding
// cutoff, so none of these requests starts a worker.
func TestCoordinatorClampsParallelism(t *testing.T) {
	h := newCoordHarness(t, 200, 2)
	body := func(par int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		req := fmt.Sprintf(`{"budget":5,"rule":"harmonic","parallelism":%d}`, par)
		h.base.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", req, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	want := body(0)
	for _, par := range []int{-3, 1 << 20} {
		if got := body(par); got != want {
			t.Fatalf("parallelism %d: body differs from parallelism 0\n got  %s\n want %s", par, got, want)
		}
	}
}

// TestCoordinatorRejectsEBSOverflow: on an index whose EBS weights overflow
// float64, the coordinator answers 400 before fan-out — not the 503 "all
// shards failed" that every leg failing to encode +Inf would add up to.
func TestCoordinatorRejectsEBSOverflow(t *testing.T) {
	h := newCoordHarness(t, 2000, 2)
	c := h.client(t)
	for _, rule := range []string{"", "maxcov"} {
		_, err := c.Select(client.SelectRequest{Budget: 8, Weights: "EBS", Rule: rule})
		ae, ok := client.AsAPIError(err)
		if !ok || ae.Status != 400 || ae.Code != server.CodeInvalidArgument || !strings.Contains(ae.Message, "overflow") {
			t.Fatalf("rule %q: EBS select on a large index = %v, want 400 naming the overflow", rule, err)
		}
	}
	if _, err := c.Select(client.SelectRequest{Budget: 8}); err != nil {
		t.Fatalf("LBS select on the same index: %v", err)
	}
}

// TestCoordinatorRouteTable: the coordinator's endpoints are rows of its base
// server's route table. Its selects are counted per route as a single
// node's are, a wrong method answers the table's 405 with Allow, and
// /api/v1/shards is listed by Routes and on the index page.
func TestCoordinatorRouteTable(t *testing.T) {
	h := newCoordHarness(t, 120, 3)
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.base.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for i := 0; i < 5; i++ {
		if rec := serve(http.MethodPost, "/api/v1/select", `{"budget":3}`); rec.Code != http.StatusOK {
			t.Fatalf("select %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := serve(http.MethodPut, "/api/v1/select", "")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" ||
		!strings.Contains(rec.Body.String(), "method PUT not allowed on /api/v1/select (allow: POST)") {
		t.Fatalf("PUT select = %d, Allow %q: %s", rec.Code, rec.Header().Get("Allow"), rec.Body.String())
	}
	metrics := serve(http.MethodGet, "/api/v1/metrics", "").Body.String()
	for _, want := range []string{
		`podium_http_requests_total{code="200",method="POST",route="select"} 5`,
		`podium_http_requests_total{code="405",method="PUT",route="select"} 1`,
		`podium_http_request_duration_seconds_count{route="select"} 6`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
	rows := map[string][3]string{}
	for _, row := range h.base.Routes() {
		rows[row[0]] = row
	}
	for _, want := range [][3]string{
		{"select", "/api/v1/select", "POST"},
		{"campaigns", "/api/v1/campaigns", "GET, POST"},
		{"shards", "/api/v1/shards", "GET"},
	} {
		if rows[want[0]] != want {
			t.Errorf("route %s = %v, want %v", want[0], rows[want[0]], want)
		}
	}
	if index := serve(http.MethodGet, "/", "").Body.String(); !strings.Contains(index, "/api/v1/shards") {
		t.Errorf("index page does not list /api/v1/shards")
	}
}

// TestCoordinatorShardsEndpoint: the health endpoint reports per-shard
// population and epochs, and the fall-through routes still serve.
func TestCoordinatorShardsEndpoint(t *testing.T) {
	h := newCoordHarness(t, 200, 2)
	c := h.client(t)

	var health []struct {
		URL   string `json:"url"`
		OK    bool   `json:"ok"`
		Users int    `json:"users"`
		Epoch uint64 `json:"epoch"`
	}
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, nil)
	_ = cl
	if err := getJSON(t, ts.URL+"/api/v1/shards", &health); err != nil {
		t.Fatal(err)
	}
	if len(health) != 2 {
		t.Fatalf("health rows = %d, want 2", len(health))
	}
	total := 0
	for _, row := range health {
		if !row.OK {
			t.Fatalf("shard unhealthy: %+v", row)
		}
		total += row.Users
	}
	if total != 200 {
		t.Fatalf("shard populations sum to %d, want 200", total)
	}

	// Fall-through: the coordinator still answers the base surface.
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 200 {
		t.Fatalf("fall-through status users = %d", st.Users)
	}
}

// TestCoordinatorCampaignFanout: a campaign wave fans to every shard with a
// proportional budget split and aggregates terminal summaries.
func TestCoordinatorCampaignFanout(t *testing.T) {
	h := newCoordHarness(t, 200, 2)
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)

	var agg struct {
		Degraded bool `json:"degraded"`
		Budget   int  `json:"budget"`
		Accepted int  `json:"accepted"`
		Shards   []struct {
			State  string `json:"state"`
			Budget int    `json:"budget"`
		} `json:"shards"`
	}
	if err := postJSON(t, ts.URL+"/api/v1/campaigns", `{"budget":6,"time_scale":0.01,"non_response":0,"decline":0}`, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Degraded {
		t.Fatal("healthy campaign fan-out reported degraded")
	}
	if len(agg.Shards) != 2 {
		t.Fatalf("campaign rows = %d, want 2", len(agg.Shards))
	}
	splitTotal := 0
	for _, row := range agg.Shards {
		if row.State != "converged" && row.State != "exhausted" {
			t.Fatalf("shard campaign not terminal: %+v", row)
		}
		if row.Budget < 1 {
			t.Fatalf("shard got budget %d", row.Budget)
		}
		splitTotal += row.Budget
	}
	if splitTotal > 6+1 || splitTotal < 2 {
		t.Fatalf("budget split sums to %d for budget 6", splitTotal)
	}
	if agg.Accepted == 0 {
		t.Fatal("campaign accepted no users with decline and non-response at 0")
	}
}

// TestCoordinatorCampaignRejectsBadParams: campaign creation runs the
// select's parameter check before any fan-out, so an unknown weight scheme
// or rule is the select's 400 — not a degraded 200 whose every shard row
// carries that shard's 400 — and no shard receives a campaign.
func TestCoordinatorCampaignRejectsBadParams(t *testing.T) {
	h := newCoordHarness(t, 120, 2)
	ts := httptest.NewServer(h.base)
	t.Cleanup(ts.Close)
	for _, body := range []string{`{"weights":"nope"}`, `{"rule":"nope"}`} {
		sel, err := http.Post(ts.URL+"/api/v1/select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := io.ReadAll(sel.Body)
		sel.Body.Close()
		if sel.StatusCode != http.StatusBadRequest {
			t.Fatalf("select %s: status %d, want 400", body, sel.StatusCode)
		}
		camp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(camp.Body)
		camp.Body.Close()
		if camp.StatusCode != http.StatusBadRequest || string(got) != string(want) {
			t.Fatalf("campaign %s: %d %s, want the select's 400 %s", body, camp.StatusCode, got, want)
		}
	}
	for i, srv := range h.servers {
		var camps []json.RawMessage
		if err := getJSON(t, srv.URL+"/api/v1/campaigns", &camps); err != nil {
			t.Fatal(err)
		}
		if len(camps) != 0 {
			t.Fatalf("shard %d received %d campaigns from rejected requests", i, len(camps))
		}
	}
}

// TestCoordinatorErrorEnvelope: every coordinator-origin error — the 503 on
// total shard loss, the 400s rejecting shard-local concepts — must carry the
// unified /api/v1 error envelope, so client.APIError decodes them and
// callers branch on Code/Status instead of string-matching. Regression: a
// coordinator writing bare-text errors would surface as an opaque transport
// error here.
func TestCoordinatorErrorEnvelope(t *testing.T) {
	h := newCoordHarness(t, 120, 2)
	c := h.client(t)

	// 400: feedback carries shard-local group IDs.
	_, err := c.Select(client.SelectRequest{Budget: 3, Feedback: server.FeedbackJSON{MustHave: []int{1}}})
	ae, ok := client.AsAPIError(err)
	if !ok {
		t.Fatalf("feedback rejection not an APIError: %v", err)
	}
	if ae.Status != 400 || ae.Code != server.CodeInvalidArgument {
		t.Fatalf("feedback rejection envelope = code %q status %d, want %q/400", ae.Code, ae.Status, server.CodeInvalidArgument)
	}

	// 400: named configs are shard-local too.
	if _, err := c.Select(client.SelectRequest{Budget: 3, Config: "paper"}); err == nil {
		t.Fatal("named-config select accepted")
	} else if ae, ok := client.AsAPIError(err); !ok || ae.Code != server.CodeInvalidArgument {
		t.Fatalf("named-config rejection envelope: %v", err)
	}

	// 503: total shard loss.
	for _, ts := range h.servers {
		ts.Close()
	}
	_, err = c.Select(client.SelectRequest{Budget: 3})
	ae, ok = client.AsAPIError(err)
	if !ok {
		t.Fatalf("total-loss error not an APIError: %v", err)
	}
	if ae.Status != 503 || ae.Code != server.CodeUnavailable {
		t.Fatalf("total-loss envelope = code %q status %d, want %q/503", ae.Code, ae.Status, server.CodeUnavailable)
	}
}

// TestCoordinatorAbortsOnFailedBodyWrite: once the 200 header is out, a
// select body the writer cannot take whole must abort the connection
// (http.ErrAbortHandler), never leave the client a truncated 200.
func TestCoordinatorAbortsOnFailedBodyWrite(t *testing.T) {
	h := newCoordHarness(t, 120, 2)
	rec := httptest.NewRecorder()
	defer func() {
		if e := recover(); e != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", e)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d before the body write, want 200", rec.Code)
		}
	}()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(`{"budget":3}`))
	h.base.ServeHTTP(failingWriter{rec}, req)
	t.Fatal("failed body write did not abort the connection")
}

// failingWriter takes the header but fails every body write.
type failingWriter struct{ *httptest.ResponseRecorder }

func (f failingWriter) Write([]byte) (int, error) { return 0, errors.New("wire cut") }
