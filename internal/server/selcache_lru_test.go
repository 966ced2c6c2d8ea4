package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestSelectCacheLRUEviction shrinks the caps and drives distinct select
// shapes past them: the least-recently-used entry is the one evicted, a
// re-request of an evicted shape recomputes correctly, and the eviction
// counters advance. Touched entries survive — recency, not insertion order,
// decides the victim.
func TestSelectCacheLRUEviction(t *testing.T) {
	defer func(e, s int) { maxSelCacheEntries, maxSelCacheStates = e, s }(
		maxSelCacheEntries, maxSelCacheStates)
	maxSelCacheEntries, maxSelCacheStates = 2, 1

	s := newTestServer(t)
	sel := func(body string) *bytes.Buffer {
		rec := doJSON(t, s, http.MethodPost, "/api/v1/select", body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("select %s: %d: %s", body, rec.Code, rec.Body.String())
		}
		return rec.Body
	}

	a1 := sel(`{"budget":1}`) // miss, insert A     → [A]
	sel(`{"budget":2}`)       // miss, insert B     → [B A]
	before := s.SelectCacheStats()
	a2 := sel(`{"budget":1}`) // hit, A to front    → [A B]
	sel(`{"budget":3}`)       // miss, evicts B     → [C A]
	a3 := sel(`{"budget":1}`) // hit: A survived    → [A C]
	sel(`{"budget":2}`)       // miss: B was evicted
	after := s.SelectCacheStats()

	if !bytes.Equal(a1.Bytes(), a2.Bytes()) || !bytes.Equal(a1.Bytes(), a3.Bytes()) {
		t.Fatal("cached and post-eviction responses for the same request differ")
	}
	if hits := after.Hits - before.Hits; hits != 2 {
		t.Fatalf("LRU-touched entry scored %d hits, want 2", hits)
	}
	if ev := after.EntryEvictions - before.EntryEvictions; ev != 2 {
		t.Fatalf("entry evictions = %d, want 2 (B twice)", ev)
	}
	// Budgets are part of the state key, so with a single state slot every
	// budget switch above evicted the previous selector state.
	if after.StateEvicts == before.StateEvicts {
		t.Fatal("state evictions did not advance despite cap 1 and 3 budgets")
	}
	if after.Entries > maxSelCacheEntries {
		t.Fatalf("entries = %d exceeds cap %d", after.Entries, maxSelCacheEntries)
	}
}

// TestSelectCacheEvictionMetric: the evictions surface as the
// podium_select_cache_evictions family with a kind label.
func TestSelectCacheEvictionMetric(t *testing.T) {
	defer func(e int) { maxSelCacheEntries = e }(maxSelCacheEntries)
	maxSelCacheEntries = 1

	s := newTestServer(t)
	doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":1}`, nil)
	doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil)

	rec := doJSON(t, s, http.MethodGet, "/api/v1/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`podium_select_cache_evictions{kind="entry"} 1`)) {
		t.Fatalf("metrics missing eviction counter:\n%s", rec.Body.String())
	}
}
