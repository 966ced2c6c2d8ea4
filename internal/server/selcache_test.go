package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"podium/internal/groups"
	"podium/internal/synth"
)

// TestSelectCachePrettyVariant: ?pretty=1 and compact responses are distinct
// cache entries — the pretty bytes must be indented, the compact ones must
// not, and serving one shape must never satisfy a request for the other
// (the regression this key field exists for). Repeats of each shape hit.
func TestSelectCachePrettyVariant(t *testing.T) {
	s := newTestServer(t)

	compact := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	pretty := doJSON(t, s, http.MethodPost, "/api/v1/select?pretty=1", `{"budget":2}`, nil)
	if compact.Code != http.StatusOK || pretty.Code != http.StatusOK {
		t.Fatalf("select codes: compact %d, pretty %d", compact.Code, pretty.Code)
	}
	if bytes.Contains(compact.Body.Bytes(), []byte("\n  ")) {
		t.Fatal("compact response contains indentation")
	}
	if !bytes.Contains(pretty.Body.Bytes(), []byte("\n  ")) {
		t.Fatal("pretty response is not indented")
	}
	if bytes.Equal(compact.Body.Bytes(), pretty.Body.Bytes()) {
		t.Fatal("pretty and compact requests served identical bytes")
	}

	// Both shapes decode to the same payload.
	var a, b map[string]interface{}
	decodeBody(t, compact, &a)
	decodeBody(t, pretty, &b)
	if len(a) != len(b) || a["score"] != b["score"] {
		t.Fatalf("pretty and compact payloads differ: %v vs %v", a, b)
	}

	// Repeats of each shape are cache hits serving the same bytes.
	before := s.SelectCacheStats()
	c2 := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	p2 := doJSON(t, s, http.MethodPost, "/api/v1/select?pretty=1", `{"budget":2}`, nil)
	after := s.SelectCacheStats()
	if !bytes.Equal(c2.Body.Bytes(), compact.Body.Bytes()) || !bytes.Equal(p2.Body.Bytes(), pretty.Body.Bytes()) {
		t.Fatal("repeat requests served different bytes")
	}
	if hits := after.Hits - before.Hits; hits != 2 {
		t.Fatalf("repeat requests scored %d hits, want 2 (misses %d→%d)", hits, before.Misses, after.Misses)
	}
}

// TestSelectCacheWatermark drives the full invalidation model through a live
// server: repeats hit; a selection-irrelevant write (same-bucket score
// rewrite) publishes a new epoch that still hits; a bucket-moving write
// misses; and the post-churn cached response is byte-identical to what a
// fresh computation (cache disabled) produces.
func TestSelectCacheWatermark(t *testing.T) {
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
	sel := func() []byte {
		t.Helper()
		rec := doMutable(t, ms, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("select: %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	first := sel()
	st0 := ms.SelectCacheStats()
	if st0.Misses == 0 {
		t.Fatal("first select did not miss")
	}
	if !bytes.Equal(sel(), first) {
		t.Fatal("repeat select changed bytes on an unchanged population")
	}
	st1 := ms.SelectCacheStats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("repeat select: hits %d→%d, want +1", st0.Hits, st1.Hits)
	}

	// Same-bucket rewrite: user A's p stays at its current value. The batch
	// publishes a new epoch, but nothing selection-relevant moved — the
	// cached entry must ride through.
	epochBefore := ms.Snapshot().Epoch()
	if rec := doMutable(t, ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"p","score":0.05}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("same-bucket write: %d: %s", rec.Code, rec.Body.String())
	}
	if e := ms.Snapshot().Epoch(); e == epochBefore {
		t.Fatal("same-bucket write did not publish a new epoch")
	}
	if !bytes.Equal(sel(), first) {
		t.Fatal("select changed after a selection-irrelevant write")
	}
	st2 := ms.SelectCacheStats()
	if st2.Hits != st1.Hits+1 || st2.Misses != st1.Misses {
		t.Fatalf("same-bucket write evicted the cache: hits %d→%d misses %d→%d",
			st1.Hits, st2.Hits, st1.Misses, st2.Misses)
	}

	// Selection-relevant writes: a brand-new property (bucketed live — a
	// reshape) and a new user (new adjacency rows). The watermark advances
	// and the next select must recompute.
	if rec := doMutable(t, ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"r","score":0.8}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("new-property write: %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"E","properties":{"p":0.4,"q":0.6}}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("late user add: %d: %s", rec.Code, rec.Body.String())
	}
	moved := sel()
	st3 := ms.SelectCacheStats()
	if st3.Misses != st2.Misses+1 {
		t.Fatalf("relevant writes not invalidated: misses %d→%d", st2.Misses, st3.Misses)
	}

	// The repaired response must be byte-identical to the baseline: disable
	// the cache (every select computes) and compare.
	ms.SetSelectCacheEnabled(false)
	baseline := sel()
	ms.SetSelectCacheEnabled(true)
	if !bytes.Equal(moved, baseline) {
		t.Fatalf("cached select diverged from baseline:\ncached:   %s\nbaseline: %s", moved, baseline)
	}
	if !bytes.Equal(sel(), baseline) {
		t.Fatal("re-enabled cache serves bytes differing from baseline")
	}
}

// TestSelectCacheFeedback: feedback-restricted selections are cached on their
// canonicalized feedback key — repeats hit, distinct feedback sets are
// distinct entries, and the feedback-free entry is never served for a
// feedback request (or vice versa). Invalid feedback stays a 400 and is never
// cached.
func TestSelectCacheFeedback(t *testing.T) {
	s := newTestServer(t)

	free := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	fb := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"feedback":{"priority":[0],"standard_explicit":true}}`, nil)
	if free.Code != http.StatusOK || fb.Code != http.StatusOK {
		t.Fatalf("codes: free %d, feedback %d", free.Code, fb.Code)
	}
	if bytes.Equal(free.Body.Bytes(), fb.Body.Bytes()) {
		t.Fatal("feedback select served the feedback-free entry")
	}

	before := s.SelectCacheStats()
	fb2 := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"feedback":{"priority":[0],"standard_explicit":true}}`, nil)
	after := s.SelectCacheStats()
	if !bytes.Equal(fb2.Body.Bytes(), fb.Body.Bytes()) {
		t.Fatal("repeat feedback select changed bytes")
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("repeat feedback select did not hit: hits %d→%d", before.Hits, after.Hits)
	}

	// A different restriction is a different entry, not a wrong answer.
	other := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"feedback":{"must_not":[0]}}`, nil)
	if other.Code != http.StatusOK {
		t.Fatalf("must_not select: %d: %s", other.Code, other.Body.String())
	}

	// Invalid feedback: 400 every time, never cached into a poisoned entry.
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"feedback":{"priority":[999]}}`, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("invalid feedback attempt %d: code %d", i, rec.Code)
		}
	}
}

// TestSelectCacheDisabled: with the cache off, selects compute, stay correct,
// and touch no cache counters.
func TestSelectCacheDisabled(t *testing.T) {
	s := newTestServer(t)
	s.SetSelectCacheEnabled(false)
	before := s.SelectCacheStats()
	a := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	b := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)
	if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("disabled-cache selects: codes %d/%d, identical=%t", a.Code, b.Code, bytes.Equal(a.Body.Bytes(), b.Body.Bytes()))
	}
	after := s.SelectCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("disabled cache still counted traffic: %+v → %+v", before, after)
	}
	s.SetSelectCacheEnabled(true)
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), a.Body.Bytes()) {
		t.Fatal("re-enabled cache diverged from the computed response")
	}
}

// TestSelectCacheOffComputesEverySelect: with the cache off nothing is kept
// between selects. Feedback-free selects with distinct top_k, then a repeat
// of the first, each run the engine once, leave no cache entry, and return
// the bytes a cache-on server returns.
func TestSelectCacheOffComputesEverySelect(t *testing.T) {
	off, on := newTestServer(t), newTestServer(t)
	off.SetSelectCacheEnabled(false)
	var bodies []string
	for k := 1; k <= 5; k++ {
		bodies = append(bodies, fmt.Sprintf(`{"budget":2,"top_k":%d}`, k))
	}
	bodies = append(bodies, bodies[0])
	for i, body := range bodies {
		got := doJSON(t, off, http.MethodPost, "/api/v1/select", body, nil)
		want := doJSON(t, on, http.MethodPost, "/api/v1/select", body, nil)
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("select %d %s: cache-off %d differs from cache-on %d:\n%s\n%s", i, body, got.Code, want.Code, got.Body.String(), want.Body.String())
		}
		metrics := doJSON(t, off, http.MethodGet, "/api/v1/metrics", "", nil).Body.String()
		if line := fmt.Sprintf("podium_engine_selections_total %d\n", i+1); !strings.Contains(metrics, line) {
			t.Errorf("after select %d %s: want %q, got\n%s", i, body, line, grepLines(metrics, "podium_engine_selections_total"))
		}
		if n := off.SelectCacheStats().Entries; n != 0 {
			t.Errorf("after select %d %s: cache-off server holds %d cache entries, want 0", i, body, n)
		}
	}
}

// TestSelectCacheConcurrentFeedback: feedback selects at one budget from
// eight goroutines get exactly the bytes sequential ones get, and no
// feedback miss creates or syncs a selector state.
func TestSelectCacheConcurrentFeedback(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(600)).Repo
	cfg := groups.Config{K: 3}
	bodies := make([]string, 16)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"budget":6,"feedback":{"priority":[%d,%d],"must_not":[%d]}}`, i, 40+i, 80+i)
	}
	seq := New("sequential", repo, cfg, nil)
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		rec := doJSON(t, seq, http.MethodPost, "/api/v1/select", body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", body, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.Bytes()
	}
	s := New("concurrent", repo, cfg, nil)
	got := make([][]byte, len(bodies))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += 8 {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(bodies[i])))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: HTTP %d: %s", bodies[i], rec.Code, rec.Body.String())
				}
				got[i] = rec.Body.Bytes()
			}
		}(w)
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: concurrent bytes differ from the sequential ones", bodies[i])
		}
	}
	st := s.SelectCacheStats()
	if st.Misses != uint64(len(bodies)) || st.Repairs+st.Recomputes != 0 {
		t.Fatalf("stats %+v: want %d misses and no selector-state sync", st, len(bodies))
	}
}
