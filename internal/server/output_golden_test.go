package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"podium/internal/client"
	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/synth"
)

var updateOutputGolden = flag.Bool("update-output-golden", false, "rewrite testdata/output_golden.json from the current server")

const outputGoldenPath = "testdata/output_golden.json"

// clusterMix is the rule/budget mix a coordinator serves in the cluster
// benchmark.
var clusterMix = []struct {
	rule   string
	budget int
}{{"coverage", 8}, {"harmonic", 8}, {"fairness-floor", 16}, {"maxcov", 16}}

// goldenShardReports is a fixed coordinator shard record: one healthy shard
// and one failed shard whose error needs JSON escaping.
var goldenShardReports = []client.ShardReport{
	{URL: "http://127.0.0.1:7001", Epoch: 3, OK: true, Winners: 16},
	{URL: "http://127.0.0.1:7002", Epoch: 18446744073709551615, Error: `Post "http://127.0.0.1:7002/api/v1/select": dial tcp <refused> & "reset"`},
}

// goldenTrace is a fixed span tree with fractional millisecond figures.
var goldenTrace = &obs.SpanJSON{Name: "coordinator.select", Ms: 131.072515, Children: []*obs.SpanJSON{
	{Name: "fanout", Ms: 71.9},
	{Name: "merge", Ms: 1e-7},
}}

// renderExtras are the coordinator extras pinned for every render.
var renderExtras = []struct {
	name  string
	extra map[string]interface{}
}{
	{"none", nil},
	{"complete", map[string]interface{}{"degraded": false, "shards": goldenShardReports}},
	{"degraded", map[string]interface{}{"degraded": true, "shards": goldenShardReports}},
	{"traced", map[string]interface{}{"degraded": false, "shards": goldenShardReports, "trace": goldenTrace}},
}

func sum(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// mergeCandidates is a fixed round-1 union: every fifth user.
func mergeCandidates(n int) []profile.UserID {
	var out []profile.UserID
	for u := 0; u < n; u += 5 {
		out = append(out, profile.UserID(u))
	}
	return out
}

// renderHashes pins Snapshot.RenderSelection for every cluster combination
// and extras set, and explain.NewReport's JSON for the same results.
func renderHashes(t *testing.T, sn *server.Snapshot, out map[string]string) {
	t.Helper()
	cands := mergeCandidates(sn.Repo().NumUsers())
	for _, cm := range clusterMix {
		rl := core.MustRule(cm.rule)
		inst := sn.Instance(groups.WeightLBS, groups.CoverSingle, cm.budget)
		res, err := core.MergeGreedyRule(inst, cands, cm.budget, rl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topK := range []int{200, 7} {
			for _, ex := range renderExtras {
				data, err := sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, cm.budget, topK, rl, res, ex.extra)
				if err != nil {
					t.Fatalf("render %s/%d: %v", cm.rule, cm.budget, err)
				}
				out[fmt.Sprintf("render/%s/%d/top%d/%s", cm.rule, cm.budget, topK, ex.name)] = sum(data)
			}
		}
		rep, err := json.Marshal(explain.NewReport(inst, res, 200))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("report/%s/%d", cm.rule, cm.budget)] = sum(rep)
	}
	// Every rule's own greedy on a second instance shape, and a report whose
	// headline size exceeds the group count.
	inst := sn.Instance(groups.WeightIden, groups.CoverProp, 8)
	for _, rl := range core.Rules() {
		res, err := core.GreedyRule(inst, 8, rl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(explain.NewReport(inst, res, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		out["report/iden-prop/"+rl.Name()] = sum(rep)
	}
	// An empty panel.
	empty := &core.Result{}
	for _, ex := range renderExtras {
		data, err := sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, 8, 200, nil, empty, ex.extra)
		if err != nil {
			t.Fatal(err)
		}
		out["render/empty/"+ex.name] = sum(data)
	}
	rep, err := json.Marshal(explain.NewReport(sn.Instance(groups.WeightLBS, groups.CoverSingle, 8), empty, 200))
	if err != nil {
		t.Fatal(err)
	}
	out["report/empty"] = sum(rep)
}

// goldenSelects are the pinned select bodies, each served compact and with
// ?pretty=1.
var goldenSelects = []string{
	`{"budget":8}`,
	`{"budget":8,"top_k":7}`,
	`{"budget":8,"rule":"harmonic"}`,
	`{"budget":16,"rule":"fairness-floor"}`,
	`{"budget":16,"rule":"maxcov"}`,
	`{"budget":8,"feedback":{"must_not":[7],"priority":[3,10,40,41]}}`,
	`{"budget":6,"coverage":"prop","top_k":50,"feedback":{"must_have":[2],"standard":[5,6,7,8,9],"standard_explicit":true}}`,
}

// httpHashes pins select and query bodies served by s.
func httpHashes(t *testing.T, s *server.Server, out map[string]string) {
	t.Helper()
	do := func(path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s", path, body, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	for _, body := range goldenSelects {
		out["select/compact/"+body] = sum(do("/api/v1/select", body))
		out["select/pretty/"+body] = sum(do("/api/v1/select?pretty=1", body))
	}
	q := `{"query":"SELECT 8 USERS WEIGHTS IDEN COVERAGE PROP","top_k":25}`
	out["query/"+q] = sum(do("/api/v1/query", q))
}

// TestOutputGolden pins the bytes of the server's response path — the
// coordinator render with and without its extra fields, the explanation
// report, and select and query bodies (compact and pretty, with and without
// the select cache) — on the engine golden's ScaleLike(2000) instance, so a
// faster render, report or cache path must reproduce every byte. Regenerate
// only for an intended output change:
//
//	go test ./internal/server -run TestOutputGolden -update-output-golden
func TestOutputGolden(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(2000)).Repo
	cfg := groups.Config{K: 3}
	got := map[string]string{}
	s := server.New("golden", repo, cfg, nil)
	renderHashes(t, s.Snapshot(), got)
	httpHashes(t, s, got)
	// The same bodies with the watermark cache off, computed afresh on every
	// request; a second round on the cached server answers from its cache.
	uncached := server.New("golden", repo, cfg, nil)
	uncached.SetSelectCacheEnabled(false)
	for i, srv := range []*server.Server{s, uncached, uncached} {
		again := map[string]string{}
		httpHashes(t, srv, again)
		for k, v := range again {
			if got[k] != v {
				t.Errorf("server %d: %s: sha256 %s, first cached server %s", i, k, v, got[k])
			}
		}
	}

	if *updateOutputGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outputGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(outputGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if got[k] != want[k] {
			t.Errorf("%s: sha256 %s, golden %s", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned outputs, golden has %d", len(got), len(want))
	}
}

// TestRenderSelectionExtraKeys: the coordinator's extras are exactly
// degraded, shards and trace; any other key — a standard field's name
// included — is an error, not a silent override.
func TestRenderSelectionExtraKeys(t *testing.T) {
	sn := server.New("extras", synth.Generate(synth.ScaleLike(200)).Repo, groups.Config{K: 3}, nil).Snapshot()
	res, err := core.GreedyRule(sn.Instance(groups.WeightLBS, groups.CoverSingle, 4), 4, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"score", "users", "epoch"} {
		extra := map[string]interface{}{"degraded": false, key: 1}
		if _, err := sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, 4, 200, nil, res, extra); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("extra key %q: err = %v, want an error naming it", key, err)
		}
	}
}

// TestSelectDeclaresLength: select bodies — compact, pretty and traced — go
// out with their Content-Length and unchunked, however large, so a client
// can read one into a buffer of that size.
func TestSelectDeclaresLength(t *testing.T) {
	ts := httptest.NewServer(server.New("length", synth.Generate(synth.ScaleLike(200)).Repo, groups.Config{K: 3}, nil))
	defer ts.Close()
	for _, path := range []string{"/api/v1/select", "/api/v1/select?pretty=1", "/api/v1/select?trace=1"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"budget":8}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) < 64<<10 {
			t.Fatalf("%s: HTTP %d, %d bytes; want a 200 past net/http's 2 KiB chunking buffer", path, resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte body", path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
