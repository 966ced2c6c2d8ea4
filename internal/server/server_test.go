package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/groups"
	"podium/internal/profile"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	repo := profile.PaperExample()
	cfg := groups.Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3}
	configs := []NamedConfig{{
		Name:        "Summer Pavilion",
		Description: "Diversify on restaurant-related properties",
		Budget:      2,
		Weights:     "LBS",
		Coverage:    "Single",
	}}
	return New("paper-example", repo, cfg, configs)
}

func doJSON(t *testing.T, s *Server, method, path, body string, out interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s response: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec
}

func TestStatus(t *testing.T) {
	s := newTestServer(t)
	var got map[string]interface{}
	rec := doJSON(t, s, http.MethodGet, "/api/v1/status", "", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got["users"].(float64) != 5 || got["groups"].(float64) != 16 {
		t.Fatalf("status = %v", got)
	}
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/status", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
}

func TestGroupsEndpoint(t *testing.T) {
	s := newTestServer(t)
	var got []map[string]interface{}
	rec := doJSON(t, s, http.MethodGet, "/api/v1/groups?limit=3", "", &got)
	if rec.Code != http.StatusOK || len(got) != 3 {
		t.Fatalf("groups: code %d, %d rows", rec.Code, len(got))
	}
	if got[0]["size"].(float64) != 3 {
		t.Fatalf("largest group size = %v", got[0]["size"])
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/groups?limit=nope", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit accepted: %d", rec.Code)
	}
}

func TestSelectDefault(t *testing.T) {
	s := newTestServer(t)
	var got struct {
		Users []struct {
			Name     string  `json:"name"`
			Marginal float64 `json:"marginal"`
		} `json:"users"`
		Score float64 `json:"score"`
	}
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("select = %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Users) != 2 || got.Users[0].Name != "Alice" || got.Users[1].Name != "Eve" {
		t.Fatalf("selected %+v, want Alice then Eve", got.Users)
	}
	if got.Score != 17 {
		t.Fatalf("score = %v, want 17", got.Score)
	}
}

func TestSelectWithFeedback(t *testing.T) {
	s := newTestServer(t)
	// Priority on group 0 (livesIn Tokyo); must-not Carol's groups not set.
	var got struct {
		Users []struct {
			ID int `json:"id"`
		} `json:"users"`
		PriorityScore float64 `json:"priority_score"`
	}
	body := `{"budget":1,"feedback":{"priority":[0],"standard_explicit":true}}`
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", body, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("select = %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Users) != 1 {
		t.Fatalf("users = %+v", got.Users)
	}
	if got.Users[0].ID != 0 && got.Users[0].ID != 3 {
		t.Fatalf("selected %d, want a Tokyo resident", got.Users[0].ID)
	}
	if got.PriorityScore <= 0 {
		t.Fatalf("priority score = %v", got.PriorityScore)
	}
}

func TestSelectNamedConfig(t *testing.T) {
	s := newTestServer(t)
	var got struct {
		Users []struct {
			Name string `json:"name"`
		} `json:"users"`
	}
	rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"config":"Summer Pavilion"}`, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("select = %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Users) != 2 {
		t.Fatalf("users = %+v", got.Users)
	}
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"config":"nope"}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown config accepted: %d", rec.Code)
	}
}

func TestSelectValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []string{
		`{"weights":"bogus"}`,
		`{"coverage":"bogus"}`,
		`{"unknown_field":1}`,
		`{"feedback":{"priority":[999]}}`,
		`not json`,
	}
	for _, body := range cases {
		if rec := doJSON(t, s, http.MethodPost, "/api/v1/select", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d, want 400", body, rec.Code)
		}
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/select", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatal("GET select allowed")
	}
}

func TestSelectAllSchemes(t *testing.T) {
	s := newTestServer(t)
	for _, ws := range []string{"Iden", "LBS", "EBS"} {
		for _, cs := range []string{"Single", "Prop"} {
			body := `{"budget":2,"weights":"` + ws + `","coverage":"` + cs + `"}`
			var got struct {
				Users []struct{} `json:"users"`
			}
			rec := doJSON(t, s, http.MethodPost, "/api/v1/select", body, &got)
			if rec.Code != http.StatusOK || len(got.Users) != 2 {
				t.Fatalf("%s/%s: code %d users %d", ws, cs, rec.Code, len(got.Users))
			}
		}
	}
}

func TestDistributionEndpoint(t *testing.T) {
	s := newTestServer(t)
	var got struct {
		Buckets []string  `json:"buckets"`
		All     []float64 `json:"all"`
		Subset  []float64 `json:"subset"`
	}
	path := "/api/v1/distribution?prop=avgRating%20Mexican&users=0,4"
	rec := doJSON(t, s, http.MethodGet, path, "", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("distribution = %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Buckets) != 3 || len(got.All) != 3 {
		t.Fatalf("distribution shape: %+v", got)
	}
	if got.Subset[2] != 1 {
		t.Fatalf("subset = %v, want all mass in the high bucket", got.Subset)
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/distribution?prop=nope", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown property: code %d", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/distribution?prop=avgRating%20Mexican&users=99", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad user accepted: code %d", rec.Code)
	}
}

func TestIndexPage(t *testing.T) {
	s := newTestServer(t)
	rec := doJSON(t, s, http.MethodGet, "/", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Podium", "paper-example", "/api/v1/select"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index page missing %q", want)
		}
	}
	if rec := doJSON(t, s, http.MethodGet, "/nope", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path: %d", rec.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s := newTestServer(t)
	var got struct {
		Users []struct {
			Name string `json:"name"`
		} `json:"users"`
		PriorityScore float64 `json:"priority_score"`
		StandardScore float64 `json:"standard_score"`
	}
	body := `{"query":"SELECT 2 USERS WHERE HAS \"avgRating Mexican\" DIVERSIFY BY \"livesIn Tokyo\", \"livesIn NYC\", \"livesIn Bali\", \"livesIn Paris\""}`
	rec := doJSON(t, s, http.MethodPost, "/api/v1/query", body, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body.String())
	}
	if len(got.Users) != 2 || got.Users[0].Name != "Alice" || got.Users[1].Name != "Eve" {
		t.Fatalf("selected %+v", got.Users)
	}
	if got.PriorityScore != 3 || got.StandardScore != 14 {
		t.Fatalf("tier scores %v/%v", got.PriorityScore, got.StandardScore)
	}
}

func TestQueryEndpointValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []string{
		`{"query":"garbage"}`,
		`{"query":"SELECT 2 USERS BUCKETS 5"}`,
		`{"query":"SELECT 2 USERS WHERE HAS \"nope\""}`,
		`{"query":"SELECT 2 USERS WHERE \"p\" IN high AND \"p\" NOT IN high"}`,
		`not json`,
	}
	for _, body := range cases {
		if rec := doJSON(t, s, http.MethodPost, "/api/v1/query", body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: code %d, want 400", body, rec.Code)
		}
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/query", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatal("GET query allowed")
	}
}

// The immutable server is stateless per request and must serve concurrent
// selections safely (run with -race to verify).
func TestConcurrentSelections(t *testing.T) {
	s := newTestServer(t)
	const workers = 16
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				req := httptest.NewRequest(http.MethodPost, "/api/v1/select",
					strings.NewReader(`{"budget":2}`))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					done <- fmt.Errorf("worker %d: code %d", w, rec.Code)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigurationsEndpoint(t *testing.T) {
	s := newTestServer(t)
	var got []NamedConfig
	rec := doJSON(t, s, http.MethodGet, "/api/v1/configurations", "", &got)
	if rec.Code != http.StatusOK || len(got) != 1 || got[0].Name != "Summer Pavilion" {
		t.Fatalf("configurations = %+v (code %d)", got, rec.Code)
	}
}

func TestSelectParallelismInvariant(t *testing.T) {
	s := newTestServer(t)
	var seq, par selectResponse
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/select",
		`{"budget":3,"weights":"LBS","coverage":"Single"}`, &seq); rec.Code != http.StatusOK {
		t.Fatalf("sequential select: %d %s", rec.Code, rec.Body.String())
	}
	// A worker count far above NumCPU is clamped, not rejected, and the
	// selection is identical to the sequential one.
	if rec := doJSON(t, s, http.MethodPost, "/api/v1/select",
		`{"budget":3,"weights":"LBS","coverage":"Single","parallelism":64}`, &par); rec.Code != http.StatusOK {
		t.Fatalf("parallel select: %d %s", rec.Code, rec.Body.String())
	}
	if len(seq.Users) != len(par.Users) || seq.Score != par.Score {
		t.Fatalf("parallelism changed the result: %+v vs %+v", seq, par)
	}
	for i := range seq.Users {
		if seq.Users[i].ID != par.Users[i].ID || seq.Users[i].Marginal != par.Users[i].Marginal {
			t.Fatalf("parallelism changed user %d: %+v vs %+v", i, seq.Users[i], par.Users[i])
		}
	}
}
