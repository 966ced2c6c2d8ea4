package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"podium/internal/groups"
)

func newMutable(t *testing.T) (*MutableServer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "live.plog")
	ms, err := NewMutable("live", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms, path
}

func doMutable(t *testing.T, ms *MutableServer, method, path, body string, out interface{}) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	ms.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		decodeBody(t, rec, out)
	}
	return rec
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, out interface{}) {
	t.Helper()
	if err := jsonUnmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, rec.Body.String())
	}
}

func TestMutableAddUserAndSelect(t *testing.T) {
	ms, _ := newMutable(t)
	// Seed three users.
	for _, body := range []string{
		`{"name":"Alice","properties":{"livesIn Tokyo":1,"avgRating Mexican":0.9}}`,
		`{"name":"Bob","properties":{"livesIn NYC":1,"avgRating Mexican":0.2}}`,
		`{"name":"Carol","properties":{"livesIn Bali":1}}`,
	} {
		var got struct {
			ID     int `json:"id"`
			Groups int `json:"groups"`
		}
		rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", body, &got)
		if rec.Code != http.StatusOK {
			t.Fatalf("add user: %d: %s", rec.Code, rec.Body.String())
		}
		if got.Groups == 0 {
			t.Fatalf("new user joined no groups: %s", rec.Body.String())
		}
	}
	// A selection over the live population.
	var sel struct {
		Users []struct {
			Name string `json:"name"`
		} `json:"users"`
	}
	rec := doMutable(t, ms, http.MethodPost, "/api/v1/select", `{"budget":2}`, &sel)
	if rec.Code != http.StatusOK || len(sel.Users) != 2 {
		t.Fatalf("select: %d, %d users", rec.Code, len(sel.Users))
	}
	// Status reflects the mutations.
	var st struct {
		Users int `json:"users"`
	}
	doMutable(t, ms, http.MethodGet, "/api/v1/status", "", &st)
	if st.Users != 3 {
		t.Fatalf("status users = %d", st.Users)
	}
}

func TestMutableAddUserValidation(t *testing.T) {
	ms, _ := newMutable(t)
	cases := []string{
		`{"properties":{}}`,                   // missing name
		`{"name":"X","properties":{"p":1.5}}`, // bad score
		`{"name":"X","unknown":1}`,            // unknown field
		`not json`,
	}
	for _, body := range cases {
		if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d", body, rec.Code)
		}
	}
	if rec := doMutable(t, ms, http.MethodGet, "/api/v1/users", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatal("GET users allowed")
	}
	// Failed mutations must not create users.
	var st struct {
		Users int `json:"users"`
	}
	doMutable(t, ms, http.MethodGet, "/api/v1/status", "", &st)
	if st.Users != 0 {
		t.Fatalf("validation failures created %d users", st.Users)
	}
}

func TestMutableSetScoreMovesGroups(t *testing.T) {
	ms, _ := newMutable(t)
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"A","properties":{"score prop":0.1}}`, nil)
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"B","properties":{"score prop":0.9}}`, nil)

	var resp struct {
		Status string `json:"status"`
	}
	rec := doMutable(t, ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"score prop","score":0.92}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("set score: %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Status != "updated" {
		t.Fatalf("status = %q", resp.Status)
	}
	// Both users now share the high bucket: the selection of 1 user covers
	// it; verify via distribution.
	var d struct {
		Subset []float64 `json:"subset"`
		All    []float64 `json:"all"`
	}
	doMutable(t, ms, http.MethodGet, "/api/v1/distribution?prop=score%20prop&users=0,1", "", &d)
	high := len(d.All) - 1
	if d.All[high] != 1 {
		t.Fatalf("population distribution after update = %v", d.All)
	}
}

func TestMutableSetScoreNewProperty(t *testing.T) {
	ms, _ := newMutable(t)
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"A","properties":{"p":0.5}}`, nil)
	var resp struct {
		Status string `json:"status"`
	}
	rec := doMutable(t, ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"brand new","score":0.4}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("set score: %d", rec.Code)
	}
	if !strings.Contains(resp.Status, "new property bucketed") {
		t.Fatalf("status = %q, want new-property bucketing notice", resp.Status)
	}
	// The new property's bucket is queryable immediately.
	rec = doMutable(t, ms, http.MethodGet, "/api/v1/distribution?prop=brand%20new&users=0", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("distribution on new property: %d", rec.Code)
	}
}

func TestMutableSetScoreValidation(t *testing.T) {
	ms, _ := newMutable(t)
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"A"}`, nil)
	for _, body := range []string{
		`{"user":5,"label":"p","score":0.5}`,
		`{"user":0,"label":"p","score":2}`,
		`{"bad json`,
	} {
		if rec := doMutable(t, ms, http.MethodPost, "/api/v1/scores", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d", body, rec.Code)
		}
	}
}

func TestMutableDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.plog")
	ms, err := NewMutable("live", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"Alice","properties":{"p":0.7}}`, nil)
	doMutable(t, ms, http.MethodPost, "/api/v1/scores", `{"user":0,"label":"p","score":0.3}`, nil)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart: the mutations survive and the index rebuilds over them.
	back, err := NewMutable("live", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	var st struct {
		Users      int `json:"users"`
		Properties int `json:"properties"`
	}
	doMutable(t, back, http.MethodGet, "/api/v1/status", "", &st)
	if st.Users != 1 || st.Properties != 1 {
		t.Fatalf("restarted status = %+v", st)
	}
	id, _ := back.Repository().Catalog().Lookup("p")
	if s, _ := back.Repository().Profile(0).Score(id); s != 0.3 {
		t.Fatalf("score after restart = %v, want the updated 0.3", s)
	}
}

// jsonUnmarshal is a tiny indirection so the test file reads naturally.
func jsonUnmarshal(data []byte, out interface{}) error { return json.Unmarshal(data, out) }
