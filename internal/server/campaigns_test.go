package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"podium/internal/groups"
	"podium/internal/synth"
)

type campaignView struct {
	ID       int     `json:"id"`
	Epoch    uint64  `json:"epoch"`
	State    string  `json:"state"`
	Budget   int     `json:"budget"`
	Round    int     `json:"round"`
	Accepted []int   `json:"accepted"`
	Coverage float64 `json:"coverage"`
	Rounds   []struct {
		Round    int   `json:"round"`
		Repaired bool  `json:"repaired"`
		Selected []int `json:"selected"`
		Waves    []struct {
			Attempt  int `json:"attempt"`
			Answered int `json:"answered"`
		} `json:"waves"`
	} `json:"rounds"`
	Error string `json:"error"`
}

// waitCampaign blocks until campaign id reaches a terminal state (the
// orchestrator goroutine owns completion, so tests poll like clients would).
func waitCampaign(t *testing.T, s *Server, id int) {
	t.Helper()
	s.camps.mu.Lock()
	rc, ok := s.camps.byID[id]
	s.camps.mu.Unlock()
	if !ok {
		t.Fatalf("campaign %d not registered", id)
	}
	select {
	case <-rc.c.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign %d did not finish", id)
	}
}

func TestCampaignEndpointLifecycle(t *testing.T) {
	s := newTestServer(t)

	var created campaignView
	rec := doJSON(t, s, http.MethodPost, "/api/v1/campaigns", `{"budget":2,"seed":17}`, &created)
	if rec.Code != http.StatusOK {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	if created.ID != 1 || created.Budget != 2 {
		t.Fatalf("created %+v", created)
	}
	waitCampaign(t, s, created.ID)

	var got campaignView
	rec = doJSON(t, s, http.MethodGet, fmt.Sprintf("/api/v1/campaigns/%d", created.ID), "", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("get = %d: %s", rec.Code, rec.Body.String())
	}
	if got.State != "converged" && got.State != "exhausted" {
		t.Fatalf("terminal state = %q (%+v)", got.State, got)
	}
	if got.Error != "" {
		t.Fatalf("campaign error: %s", got.Error)
	}
	if got.State == "converged" && len(got.Accepted) != 2 {
		t.Fatalf("converged with %d accepted, want 2", len(got.Accepted))
	}
	if len(got.Rounds) == 0 || len(got.Rounds[0].Waves) == 0 {
		t.Fatalf("detail view missing transcript: %+v", got)
	}
	if got.Rounds[0].Repaired {
		t.Fatal("first round marked repaired")
	}

	var list []campaignView
	rec = doJSON(t, s, http.MethodGet, "/api/v1/campaigns", "", &list)
	if rec.Code != http.StatusOK || len(list) != 1 || list[0].ID != created.ID {
		t.Fatalf("list = %d %+v", rec.Code, list)
	}
	if len(list[0].Rounds) != 0 {
		t.Fatal("summary view leaked the transcript")
	}
}

func TestCampaignEndpointValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"weights":"bogus"}`, http.StatusBadRequest},
		{`{"coverage":"bogus"}`, http.StatusBadRequest},
		{`{"time_scale":2.0}`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := doJSON(t, s, http.MethodPost, "/api/v1/campaigns", tc.body, nil); rec.Code != tc.want {
			t.Fatalf("POST %s = %d, want %d", tc.body, rec.Code, tc.want)
		}
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/campaigns/999", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id = %d", rec.Code)
	}
	// A non-numeric id is no such resource, not a malformed request: the
	// route table matches the path shape, so the id is just an unknown name.
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/campaigns/abc", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("non-numeric id = %d", rec.Code)
	}
	// Trailing garbage after the id is not a campaign path at all.
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/campaigns/1garbage", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("trailing-garbage id = %d", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodDelete, "/api/v1/campaigns", "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE collection = %d", rec.Code)
	}
}

// Campaign creation refuses what a select refuses. On a 5,150-group index
// EBS weights overflow float64; a campaign run under them would hold +Inf
// scores that no later list of campaigns could encode.
func TestCampaignEndpointRejectsInfiniteEBS(t *testing.T) {
	s := New("scale", synth.Generate(synth.ScaleLike(3000)).Repo, groups.Config{K: 3}, nil)
	for _, path := range []string{"/api/v1/select", "/api/v1/campaigns"} {
		rec := doJSON(t, s, http.MethodPost, path, `{"weights":"ebs"}`, nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "EBS weights overflow") {
			t.Fatalf("POST %s with EBS weights = %d, want the overflow 400: %s", path, rec.Code, rec.Body.String())
		}
	}
	if rec := doJSON(t, s, http.MethodGet, "/api/v1/campaigns", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("campaign list = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestCampaignEndpointCancel(t *testing.T) {
	s := newTestServer(t)
	// time_scale slows simulated latency to wall clock so the cancel lands
	// while the campaign is still soliciting.
	var created campaignView
	body := `{"budget":2,"seed":5,"time_scale":1.0,"mean_latency_ms":2000,"timeout_ms":3000}`
	rec := doJSON(t, s, http.MethodPost, "/api/v1/campaigns", body, &created)
	if rec.Code != http.StatusOK {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, s, http.MethodPost, fmt.Sprintf("/api/v1/campaigns/%d/cancel", created.ID), "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", rec.Code, rec.Body.String())
	}
	waitCampaign(t, s, created.ID)
	var got campaignView
	doJSON(t, s, http.MethodGet, fmt.Sprintf("/api/v1/campaigns/%d", created.ID), "", &got)
	if got.State != "cancelled" {
		t.Fatalf("state after cancel = %q", got.State)
	}
	if rec := doJSON(t, s, http.MethodGet, fmt.Sprintf("/api/v1/campaigns/%d/cancel", created.ID), "", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET cancel = %d", rec.Code)
	}
}

func TestCampaignEndpointWALDir(t *testing.T) {
	s := newTestServer(t)
	dir := t.TempDir()
	s.SetCampaignDir(dir)
	var created campaignView
	rec := doJSON(t, s, http.MethodPost, "/api/v1/campaigns", `{"budget":2,"seed":9}`, &created)
	if rec.Code != http.StatusOK {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	waitCampaign(t, s, created.ID)
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("campaign-%d.wal", created.ID)))
	if err != nil {
		t.Fatalf("campaign WAL missing: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("campaign WAL empty")
	}
}
