package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/synth"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_golden.json from the current engine")

const goldenPath = "testdata/engine_golden.json"

// goldenRun is one pinned selection: picks in order, and the exact IEEE-754
// bits of every marginal and of the score.
type goldenRun struct {
	Name      string           `json:"name"`
	Users     []profile.UserID `json:"users"`
	Marginals []string         `json:"marginal_bits"`
	Score     string           `json:"score_bits"`
}

type goldenFile struct {
	Runs []goldenRun `json:"runs"`
	// SelectSHA256 maps a compact default /api/v1/select request body to the
	// SHA-256 of the response body.
	SelectSHA256 map[string]string `json:"select_sha256"`
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func pin(name string, res *core.Result) goldenRun {
	r := goldenRun{Name: name, Users: res.Users, Score: bits(res.Score), Marginals: []string{}}
	if r.Users == nil {
		r.Users = []profile.UserID{}
	}
	for _, m := range res.Marginals {
		r.Marginals = append(r.Marginals, bits(m))
	}
	return r
}

// goldenRuns runs every greedy entry point on a fixed ScaleLike(2000)
// instance at the given parallelism.
func goldenRuns(t *testing.T, ix *groups.Index, par int) []goldenRun {
	t.Helper()
	opt := core.Options{Parallelism: par}
	n := ix.Repo().NumUsers()
	sparse := make([]bool, n)
	for u := range sparse {
		sparse[u] = u%9 == 4
	}
	must := func(res *core.Result, err error) *core.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const budget = 8
	var runs []goldenRun
	for _, r := range core.Rules() {
		for _, ws := range []groups.WeightScheme{groups.WeightIden, groups.WeightLBS} {
			for _, cs := range []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp} {
				inst := groups.NewInstance(ix, ws, cs, budget)
				for _, m := range []struct {
					name    string
					allowed []bool
				}{{"all", nil}, {"sparse", sparse}} {
					res := must(core.GreedyRestrictedRule(inst, budget, m.allowed, r, opt))
					runs = append(runs, pin(fmt.Sprintf("rule/%s/%s/%s/%s", r.Name(), ws, cs, m.name), res))
				}
			}
		}
	}
	inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, budget)
	var union []profile.UserID
	for u := 0; u < n; u += 13 {
		union = append(union, profile.UserID(u))
	}
	have := []profile.UserID{5, 17, 123, 999, 17}
	for _, r := range core.Rules() {
		runs = append(runs, pin("merge/"+r.Name(), must(core.MergeGreedyRule(inst, union, budget, r, opt))))
		runs = append(runs, pin("complete/"+r.Name(), must(core.GreedyCompleteRule(inst, 6, have, sparse, r, opt))))
	}
	fb := core.Feedback{
		MustNot:  []groups.GroupID{7},
		Priority: []groups.GroupID{3, 10, 40, 41},
	}
	custom, err := core.GreedyCustomOpts(inst, fb, budget, opt)
	if err != nil {
		t.Fatal(err)
	}
	cr := pin("custom", custom.Result)
	cr.Marginals = append(cr.Marginals, bits(custom.PriorityScore), bits(custom.StandardScore))
	runs = append(runs, cr)
	runs = append(runs, pin("noisy/sigma0.3-ties", core.NoisyGreedy(inst, budget, core.Noise{Seed: 7, WeightStdDev: 0.3, RandomTies: true})))
	iden := groups.NewInstance(ix, groups.WeightIden, groups.CoverSingle, budget)
	// A long Iden run reaches small integer marginals, where ties are common,
	// so the random draws themselves are pinned.
	runs = append(runs, pin("noisy/iden-ties", core.NoisyGreedy(iden, 40, core.Noise{Seed: 11, RandomTies: true})))
	runs = append(runs, pin("noisy/iden-lowest", core.NoisyGreedy(iden, 40, core.Noise{Seed: 11})))
	return runs
}

// selectHashes serves compact default selects from a fresh server over the
// same repository and hashes each response body.
func selectHashes(t *testing.T, repo *profile.Repository) map[string]string {
	t.Helper()
	s := server.New("golden", repo, groups.Config{K: 3}, nil)
	out := map[string]string{}
	for _, body := range []string{`{"budget":8}`, `{"budget":16}`} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("select %s: HTTP %d: %s", body, rec.Code, rec.Body.String())
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		out[body] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestEngineGolden pins absolute engine output — picks, marginal bits and
// scores for every greedy entry point and rule, plus the bytes of the default
// HTTP select — against a committed file, so an engine rewrite that changes
// any result fails here even when every path still agrees with every other.
// Regenerate only for an intended output change:
//
//	go test ./internal/core -run TestEngineGolden -update-golden
func TestEngineGolden(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(2000)).Repo
	ix := groups.Build(repo, groups.Config{K: 3})
	ix.Freeze()
	got := goldenFile{Runs: goldenRuns(t, ix, 1), SelectSHA256: selectHashes(t, repo)}

	if *updateGolden {
		// One run per line keeps a regeneration diff readable.
		var b strings.Builder
		b.WriteString("{\"runs\": [\n")
		for i, r := range got.Runs {
			line, _ := json.Marshal(r)
			b.Write(line)
			if i < len(got.Runs)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		sums, _ := json.Marshal(got.SelectSHA256)
		fmt.Fprintf(&b, "],\n\"select_sha256\": %s}\n", sums)
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []goldenRun) {
		t.Helper()
		if len(got) != len(want.Runs) {
			t.Fatalf("%s: %d runs, golden has %d", label, len(got), len(want.Runs))
		}
		for i, w := range want.Runs {
			g, _ := json.Marshal(got[i])
			e, _ := json.Marshal(w)
			if string(g) != string(e) {
				t.Errorf("%s: run %s diverged from golden\n got  %s\n want %s", label, w.Name, g, e)
			}
		}
	}
	check("parallelism 1", got.Runs)
	check("parallelism 8", goldenRuns(t, ix, 8))
	for body, sum := range want.SelectSHA256 {
		if got.SelectSHA256[body] != sum {
			t.Errorf("select %s: body sha256 %s, golden %s", body, got.SelectSHA256[body], sum)
		}
	}
}
