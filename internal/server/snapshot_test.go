package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

func TestClampParallelism(t *testing.T) {
	max := runtime.NumCPU()
	cases := []struct{ in, want int }{
		{-1, 0}, {-100, 0}, {0, 0}, {1, 1}, {max, max}, {max + 1, max}, {1 << 20, max},
	}
	for _, c := range cases {
		if got := ClampParallelism(c.in); got != c.want {
			t.Errorf("ClampParallelism(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestSnapshotInstanceMemoBounded: client budgets cannot grow a snapshot's
// instance memo without bound. On a cache-off server, 50 distinct budgets
// under LBS/Single share one instance, whose tables do not read the budget,
// and 50 under Iden/Prop store no more than maxBudgetInsts more. Every body
// equals the body of a fresh server.
func TestSnapshotInstanceMemoBounded(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(300)).Repo
	cfg := groups.Config{K: 3}
	s := New("memo", repo, cfg, nil)
	s.SetSelectCacheEnabled(false)
	for _, tc := range []struct {
		schemes string
		entries int
	}{
		{`"weights":"LBS","coverage":"Single"`, 1},
		{`"weights":"Iden","coverage":"Prop"`, 1 + maxBudgetInsts},
	} {
		for b := 1; b <= 50; b++ {
			body := fmt.Sprintf(`{"budget":%d,%s}`, b, tc.schemes)
			got := doJSON(t, s, http.MethodPost, "/api/v1/select", body, nil)
			want := doJSON(t, New("fresh", repo, cfg, nil), http.MethodPost, "/api/v1/select", body, nil)
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("select %s: HTTP %d, body differs from a fresh server's (HTTP %d):\n%s\n%s",
					body, got.Code, want.Code, got.Body.String(), want.Body.String())
			}
		}
		n := 0
		s.Snapshot().insts.Range(func(_, _ any) bool { n++; return true })
		if n != tc.entries {
			t.Fatalf("after 50 budgets of %s: %d memoized instances, want %d", tc.schemes, n, tc.entries)
		}
	}
}

// Negative parallelism used to flow straight into the selection core; it must
// clamp to sequential and produce the identical selection.
func TestSelectNegativeParallelism(t *testing.T) {
	s := newTestServer(t)
	var seq, neg selectResponse
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/select",
		`{"budget":3}`, &seq); rec.Code != http.StatusOK {
		t.Fatalf("sequential select: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/select",
		`{"budget":3,"parallelism":-7}`, &neg); rec.Code != http.StatusOK {
		t.Fatalf("negative parallelism rejected: %d %s", rec.Code, rec.Body.String())
	}
	if seq.Score != neg.Score || len(seq.Users) != len(neg.Users) {
		t.Fatalf("negative parallelism changed the result: %+v vs %+v", seq, neg)
	}
	for i := range seq.Users {
		if seq.Users[i].ID != neg.Users[i].ID {
			t.Fatalf("user %d: %+v vs %+v", i, seq.Users[i], neg.Users[i])
		}
	}
}

func TestWriteJSONCompactAndPretty(t *testing.T) {
	s := newTestServer(t)
	compact := doJSON(t, s, http.MethodGet, "/api/v1/status", "", nil)
	if body := compact.Body.String(); strings.Contains(strings.TrimRight(body, "\n"), "\n") {
		t.Fatalf("default response is not compact:\n%s", body)
	}
	pretty := doJSON(t, s, http.MethodGet, "/api/v1/status?pretty=1", "", nil)
	if body := pretty.Body.String(); !strings.Contains(body, "\n  ") {
		t.Fatalf("?pretty=1 response is not indented:\n%s", body)
	}
	if ct := compact.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	writeJSON(rec, req, http.StatusOK, map[string]interface{}{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value returned %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "encoding response") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

// TestSnapshotEpochAdvances: every mutation batch publishes a fresh epoch,
// visible in /api/v1/status.
func TestSnapshotEpochAdvances(t *testing.T) {
	ms, _ := newMutable(t)
	var st struct {
		Epoch uint64 `json:"epoch"`
	}
	doMutable(t, ms, http.MethodGet, "/api/v1/status", "", &st)
	if st.Epoch != 0 {
		t.Fatalf("initial epoch = %d", st.Epoch)
	}
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"A","properties":{"p":0.5}}`, nil)
	doMutable(t, ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"p","score":0.6}`, nil)
	doMutable(t, ms, http.MethodGet, "/api/v1/status", "", &st)
	if st.Epoch != 2 {
		t.Fatalf("epoch after two serialized mutations = %d, want 2", st.Epoch)
	}
}

// TestSerializedHistoryMatchesDirectIncremental feeds a serialized mutation
// history through the snapshot server and checks the final selection is
// bit-identical to the pre-snapshot architecture: the same operations applied
// one at a time to a single repository and index through the incremental
// path, no clones involved.
func TestSerializedHistoryMatchesDirectIncremental(t *testing.T) {
	ms, _ := newMutable(t)
	cfg := groups.Config{K: 3}

	type op struct {
		addUser string
		props   []string // "label=score" in the order sent
		user    int
		label   string
		score   float64
	}
	history := []op{
		{addUser: "Alice", props: []string{"livesIn Tokyo=1", "avgRating Mexican=0.9"}},
		{addUser: "Bob", props: []string{"avgRating Mexican=0.2", "livesIn NYC=1"}},
		{addUser: "Carol", props: []string{"livesIn Bali=1"}},
		{user: 1, label: "avgRating Mexican", score: 0.85},
		{user: 2, label: "plays chess", score: 0.6},
		{addUser: "Dave", props: []string{"livesIn Tokyo=1", "plays chess=0.7"}},
		{user: 0, label: "avgRating Mexican", score: 0.15},
	}

	// The reference: seed-style direct incremental maintenance.
	repo := profile.NewRepository()
	ix := groups.Build(repo, cfg)
	for _, o := range history {
		if o.addUser != "" {
			u := repo.AddUser(o.addUser)
			for _, kv := range o.props {
				parts := strings.SplitN(kv, "=", 2)
				var v float64
				fmt.Sscanf(parts[1], "%g", &v)
				repo.MustSetScore(u, parts[0], v)
			}
			unbucketed, err := ix.IndexUser(u)
			if err != nil {
				t.Fatal(err)
			}
			for _, pid := range unbucketed {
				if err := ix.BucketProperty(pid, cfg); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		_, known := repo.Catalog().Lookup(o.label)
		repo.MustSetScore(profile.UserID(o.user), o.label, o.score)
		pid, _ := repo.Catalog().Lookup(o.label)
		if !known {
			if err := ix.BucketProperty(pid, cfg); err != nil {
				t.Fatal(err)
			}
		} else if err := ix.UpdateScore(profile.UserID(o.user), pid); err != nil {
			t.Fatal(err)
		}
	}

	// The same history over HTTP, one request at a time (a serialized
	// history: each mutation is its own batch).
	for _, o := range history {
		if o.addUser != "" {
			props := make([]string, len(o.props))
			for i, kv := range o.props {
				parts := strings.SplitN(kv, "=", 2)
				props[i] = fmt.Sprintf("%q:%s", parts[0], parts[1])
			}
			body := fmt.Sprintf(`{"name":%q,"properties":{%s}}`, o.addUser, strings.Join(props, ","))
			if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", body, nil); rec.Code != http.StatusOK {
				t.Fatalf("add user: %d %s", rec.Code, rec.Body.String())
			}
		} else {
			body := fmt.Sprintf(`{"user":%d,"label":%q,"score":%g}`, o.user, o.label, o.score)
			if rec := doMutable(t, ms, http.MethodPost, "/api/v1/scores", body, nil); rec.Code != http.StatusOK {
				t.Fatalf("set score: %d %s", rec.Code, rec.Body.String())
			}
		}
	}

	// Selections agree exactly for every budget.
	for budget := 1; budget <= 4; budget++ {
		inst := groups.NewInstance(ix, groups.WeightLBS, groups.CoverSingle, budget)
		want := core.Greedy(inst, budget)

		var got selectResponse
		body := fmt.Sprintf(`{"budget":%d}`, budget)
		if rec := doMutable(t, ms, http.MethodPost, "/api/v1/select", body, &got); rec.Code != http.StatusOK {
			t.Fatalf("select: %d %s", rec.Code, rec.Body.String())
		}
		if len(got.Users) != len(want.Users) {
			t.Fatalf("budget %d: %d users, want %d", budget, len(got.Users), len(want.Users))
		}
		for i, u := range want.Users {
			if got.Users[i].ID != int(u) {
				t.Fatalf("budget %d, pick %d: user %d, want %d", budget, i, got.Users[i].ID, u)
			}
			if got.Users[i].Marginal != want.Marginals[i] {
				t.Fatalf("budget %d, pick %d: marginal %v, want %v",
					budget, i, got.Users[i].Marginal, want.Marginals[i])
			}
		}
		if want := inst.Score(want.Users); got.Score != want {
			t.Fatalf("budget %d: score %v, want %v", budget, got.Score, want)
		}
	}
}

// TestConcurrentReadsAndMutations hammers the lock-free read path while the
// writer publishes epochs (run with -race): every response must be
// well-formed and every selection internally consistent.
func TestConcurrentReadsAndMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.plog")
	ms, err := NewMutableOpts("stress", path, groups.Config{K: 3}, nil,
		MutableOptions{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	// Seed a population so selections have something to pick from.
	const seedUsers = 12
	for i := 0; i < seedUsers; i++ {
		body := fmt.Sprintf(`{"name":"u%d","properties":{"propA":%g,"propB":%g}}`,
			i, float64(i%10)/10, float64((i*3)%10)/10)
		if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("seed user: %d %s", rec.Code, rec.Body.String())
		}
	}

	const (
		readers   = 4
		writers   = 2
		perWorker = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var sel selectResponse
				rec := doReq(ms, http.MethodPost, "/api/v1/select", `{"budget":3}`)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: select %d: %s", w, rec.Code, rec.Body.String())
					return
				}
				if err := jsonUnmarshal(rec.Body.Bytes(), &sel); err != nil {
					errs <- fmt.Errorf("reader %d: %v", w, err)
					return
				}
				seen := map[int]bool{}
				for _, u := range sel.Users {
					if seen[u.ID] {
						errs <- fmt.Errorf("reader %d: duplicate user %d", w, u.ID)
						return
					}
					seen[u.ID] = true
				}
				if len(sel.Users) != 3 || sel.Score <= 0 {
					errs <- fmt.Errorf("reader %d: %d users, score %v", w, len(sel.Users), sel.Score)
					return
				}
				if rec := doReq(ms, http.MethodGet, "/api/v1/groups?limit=5", ""); rec.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: groups %d", w, rec.Code)
					return
				}
				if rec := doReq(ms, http.MethodGet, "/api/v1/status", ""); rec.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d", w, rec.Code)
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var rec *httptest.ResponseRecorder
				if i%5 == 0 {
					body := fmt.Sprintf(`{"name":"w%d-%d","properties":{"propA":%g}}`,
						w, i, float64(i%10)/10)
					rec = doReq(ms, http.MethodPost, "/api/v1/users", body)
				} else {
					body := fmt.Sprintf(`{"user":%d,"label":"propB","score":%g}`,
						(w*7+i)%seedUsers, float64(i%11)/10)
					rec = doReq(ms, http.MethodPost, "/api/v1/scores", body)
				}
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("writer %d: %d: %s", w, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every mutation is accounted for in the final epoch.
	var st struct {
		Users int `json:"users"`
	}
	doMutable(t, ms, http.MethodGet, "/api/v1/status", "", &st)
	wantUsers := seedUsers + writers*(perWorker/5)
	if st.Users != wantUsers {
		t.Fatalf("final users = %d, want %d", st.Users, wantUsers)
	}
	batches, mutations := ms.BatchStats()
	if wantMut := uint64(seedUsers + writers*perWorker); mutations != wantMut {
		t.Fatalf("writer applied %d mutations, want %d", mutations, wantMut)
	}
	if batches == 0 || batches > mutations {
		t.Fatalf("batches = %d for %d mutations", batches, mutations)
	}
}

// TestBatchWindowCoalesces: with a generous window, concurrent mutations land
// in far fewer batches than requests.
func TestBatchWindowCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.plog")
	ms, err := NewMutableOpts("batch", path, groups.Config{K: 3}, nil,
		MutableOptions{BatchWindow: 50 * time.Millisecond, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"name":"c%d","properties":{"p":%g}}`, i, float64(i)/20)
			doReq(ms, http.MethodPost, "/api/v1/users", body)
		}(i)
	}
	wg.Wait()
	batches, mutations := ms.BatchStats()
	if mutations != n {
		t.Fatalf("mutations = %d, want %d", mutations, n)
	}
	if batches >= n {
		t.Fatalf("window coalesced nothing: %d batches for %d mutations", batches, n)
	}
	var st struct {
		Users int `json:"users"`
	}
	doMutable(t, ms, http.MethodGet, "/api/v1/status", "", &st)
	if st.Users != n {
		t.Fatalf("users = %d, want %d", st.Users, n)
	}
}

// TestCloseRejectsNewMutations: after Close, mutations fail fast with 503 and
// reads keep serving the last epoch.
func TestCloseRejectsNewMutations(t *testing.T) {
	ms, _ := newMutable(t)
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"A","properties":{"p":0.5}}`, nil)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := doReq(ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"p","score":0.9}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mutation after Close: %d, want 503", rec.Code)
	}
	if rec := doReq(ms, http.MethodGet, "/api/v1/status", ""); rec.Code != http.StatusOK {
		t.Fatalf("read after Close: %d", rec.Code)
	}
	if err := ms.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// doReq is doMutable without the *testing.T, for use inside goroutines.
func doReq(ms *MutableServer, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	ms.ServeHTTP(rec, req)
	return rec
}
