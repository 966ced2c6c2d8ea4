package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"podium/internal/campaign"
	"podium/internal/profile"
)

// Campaign endpoints drive the procurement orchestrator (internal/campaign)
// over the server's published snapshots:
//
//	POST /api/v1/campaigns             start a campaign (runs asynchronously)
//	GET  /api/v1/campaigns             list campaign summaries
//	GET  /api/v1/campaigns/{id}        one campaign with its round transcript
//	POST /api/v1/campaigns/{id}/cancel ask a campaign to stop
//
// A campaign captures the snapshot current at creation: selections and
// repairs run against that epoch for the campaign's whole life, so a
// mutation batch published mid-campaign never shifts group IDs under it.
type campaignRegistry struct {
	mu   sync.Mutex
	next int
	byID map[int]*runningCampaign
	// dir, when set, gives every campaign a write-ahead log at
	// dir/campaign-<id>.wal; otherwise campaigns are journaled in memory
	// only (their transcript lives in the orchestrator state).
	dir string
}

type runningCampaign struct {
	id    int
	epoch uint64
	c     *campaign.Campaign
}

func newCampaignRegistry() *campaignRegistry {
	return &campaignRegistry{byID: make(map[int]*runningCampaign)}
}

// SetCampaignDir makes subsequent campaigns durable: each one journals to a
// WAL under dir, the same files a CLI resume would replay. Call before
// serving traffic.
func (s *Server) SetCampaignDir(dir string) {
	s.camps.mu.Lock()
	s.camps.dir = dir
	s.camps.mu.Unlock()
}

// campaignRequest is the POST /api/v1/campaigns body. Selection fields
// mirror /api/v1/select and pass the same check (CheckSelect); the rest
// parameterize the orchestrator and the simulated population.
type campaignRequest struct {
	Budget        int     `json:"budget"`
	Weights       string  `json:"weights"`
	Coverage      string  `json:"coverage"`
	Rule          string  `json:"rule"`
	Seed          int64   `json:"seed"`
	MaxRounds     int     `json:"max_rounds"`
	MaxAttempts   int     `json:"max_attempts"`
	TimeoutMs     float64 `json:"timeout_ms"`
	BackoffBaseMs float64 `json:"backoff_base_ms"`
	BackoffCapMs  float64 `json:"backoff_cap_ms"`
	Workers       int     `json:"workers"`
	TimeScale     float64 `json:"time_scale"`
	Parallelism   int     `json:"parallelism"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	NonResponse   float64 `json:"non_response"`
	Decline       float64 `json:"decline"`
}

// campaignWaveJSON summarizes one solicitation wave.
type campaignWaveJSON struct {
	Attempt   int     `json:"attempt"`
	BackoffMs float64 `json:"backoff_ms"`
	Answered  int     `json:"answered"`
	Late      int     `json:"late"`
	Silent    int     `json:"silent"`
	Declined  int     `json:"declined"`
}

// campaignRoundJSON is one transcript round.
type campaignRoundJSON struct {
	Round    int                `json:"round"`
	Repaired bool               `json:"repaired"`
	Selected []int              `json:"selected"`
	Dead     []int              `json:"dead,omitempty"`
	Waves    []campaignWaveJSON `json:"waves"`
	Coverage float64            `json:"coverage"`
}

// campaignJSON is a campaign summary; the detail view adds Rounds.
type campaignJSON struct {
	ID       int                 `json:"id"`
	Epoch    uint64              `json:"epoch"`
	State    string              `json:"state"`
	Budget   int                 `json:"budget"`
	Round    int                 `json:"round"`
	Accepted []int               `json:"accepted"`
	Declined []int               `json:"declined,omitempty"`
	Dead     []int               `json:"dead,omitempty"`
	Pending  []int               `json:"pending,omitempty"`
	Coverage float64             `json:"coverage"`
	Rounds   []campaignRoundJSON `json:"rounds,omitempty"`
	Error    string              `json:"error,omitempty"`
}

func usersToInts(users []profile.UserID) []int {
	out := make([]int, len(users))
	for i, u := range users {
		out[i] = int(u)
	}
	return out
}

func campaignState(st campaign.Status) string {
	switch {
	case st.Err != "":
		return "failed"
	case st.Paused:
		return "paused"
	case !st.Done:
		return "running"
	case st.Cancelled:
		return "cancelled"
	case st.Converged:
		return "converged"
	default:
		return "exhausted"
	}
}

func campaignToJSON(rc *runningCampaign, detail bool) campaignJSON {
	st := rc.c.Status()
	out := campaignJSON{
		ID:       rc.id,
		Epoch:    rc.epoch,
		State:    campaignState(st),
		Budget:   st.Budget,
		Round:    st.Round,
		Accepted: usersToInts(st.Accepted),
		Declined: usersToInts(st.Declined),
		Dead:     usersToInts(st.Dead),
		Pending:  usersToInts(st.Pending),
		Coverage: st.Coverage,
		Error:    st.Err,
	}
	if !detail {
		return out
	}
	for _, rr := range rc.c.Transcript() {
		rj := campaignRoundJSON{
			Round:    rr.Round,
			Repaired: rr.Repaired,
			Selected: usersToInts(rr.Selected),
			Dead:     usersToInts(rr.Dead),
			Coverage: rr.Coverage,
		}
		for _, w := range rr.Waves {
			wj := campaignWaveJSON{Attempt: w.Attempt, BackoffMs: w.BackoffMs}
			for _, res := range w.Results {
				switch res.Outcome {
				case campaign.OutcomeAnswered:
					wj.Answered++
				case campaign.OutcomeLate:
					wj.Late++
				case campaign.OutcomeSilent:
					wj.Silent++
				case campaign.OutcomeDeclined:
					wj.Declined++
				}
			}
			rj.Waves = append(rj.Waves, wj)
		}
		out.Rounds = append(out.Rounds, rj)
	}
	return out
}

// handleCampaignsList serves GET on the collection.
func (s *Server) handleCampaignsList(w http.ResponseWriter, r *http.Request) {
	s.camps.mu.Lock()
	rcs := make([]*runningCampaign, 0, len(s.camps.byID))
	for _, rc := range s.camps.byID {
		rcs = append(rcs, rc)
	}
	s.camps.mu.Unlock()
	sort.Slice(rcs, func(i, j int) bool { return rcs[i].id < rcs[j].id })
	out := make([]campaignJSON, 0, len(rcs))
	for _, rc := range rcs {
		out = append(out, campaignToJSON(rc, false))
	}
	writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) createCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "decoding request: %v", err)
		return
	}
	sn := s.Snapshot()
	p, err := sn.CheckSelect(req.Weights, req.Coverage, req.Rule, req.Budget, nil)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	if req.TimeScale < 0 || req.TimeScale > 1 {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "time_scale must be in [0,1]")
		return
	}
	if req.Workers > 64 {
		req.Workers = 64
	}
	// The journaled config keeps "" for the default rule so pre-rule WALs
	// (and default campaigns created before this field existed) stay
	// byte-identical on resume.
	ruleName := ""
	if !p.Rule.IsDefault() {
		ruleName = p.Rule.Name()
	}
	cfg := campaign.Config{
		Budget:        p.Budget,
		Rule:          ruleName,
		MaxRounds:     req.MaxRounds,
		MaxAttempts:   req.MaxAttempts,
		TimeoutMs:     req.TimeoutMs,
		BackoffBaseMs: req.BackoffBaseMs,
		BackoffCapMs:  req.BackoffCapMs,
		Workers:       req.Workers,
		TimeScale:     req.TimeScale,
		Seed:          req.Seed,
		Parallelism:   ClampParallelism(req.Parallelism),
		Metrics:       s.campMet,
		Behavior: campaign.Behavior{
			MeanLatencyMs: req.MeanLatencyMs,
			NonResponse:   req.NonResponse,
			Decline:       req.Decline,
		},
	}

	inst := sn.Instance(p.Weights, p.Coverage, cfg.Budget)

	s.camps.mu.Lock()
	s.camps.next++
	id := s.camps.next
	dir := s.camps.dir
	s.camps.mu.Unlock()

	var c *campaign.Campaign
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			writeError(w, r, http.StatusInternalServerError, codeInternal, "creating campaign dir: %v", err)
			return
		}
		c, err = campaign.NewWithWAL(inst, nil, cfg, filepath.Join(dir, fmt.Sprintf("campaign-%d.wal", id)))
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, codeInternal, "opening campaign journal: %v", err)
			return
		}
	} else {
		c = campaign.New(inst, nil, cfg)
	}
	rc := &runningCampaign{id: id, epoch: sn.Epoch(), c: c}
	s.camps.mu.Lock()
	s.camps.byID[id] = rc
	s.camps.mu.Unlock()
	go c.Run() // errors surface through Status().Err / the "failed" state

	writeJSON(w, r, http.StatusOK, campaignToJSON(rc, false))
}

// campaignFromPath resolves the {id} path parameter to a running campaign.
// Non-numeric or non-canonical ids ("007", "1x", "+1") are no such resource:
// 404, not 400 — the route table already guarantees the shape of the path.
func (s *Server) campaignFromPath(w http.ResponseWriter, r *http.Request) (*runningCampaign, bool) {
	raw := pathParam(r, "id")
	id, err := strconv.Atoi(raw)
	if err != nil || strconv.Itoa(id) != raw {
		writeError(w, r, http.StatusNotFound, codeNotFound, "no such campaign %q", raw)
		return nil, false
	}
	s.camps.mu.Lock()
	rc, ok := s.camps.byID[id]
	s.camps.mu.Unlock()
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "unknown campaign %d", id)
		return nil, false
	}
	return rc, true
}

// handleCampaignGet serves GET /api/v1/campaigns/{id}: the detail view with
// the round transcript.
func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.campaignFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, r, http.StatusOK, campaignToJSON(rc, true))
}

// handleCampaignCancel serves POST /api/v1/campaigns/{id}/cancel.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.campaignFromPath(w, r)
	if !ok {
		return
	}
	rc.c.Cancel()
	writeJSON(w, r, http.StatusOK, campaignToJSON(rc, false))
}

// PauseCampaigns pauses every campaign at its next journaled boundary and
// waits for the orchestrators to return — the graceful-shutdown path.
// No terminal verdict is journaled: a journaled campaign's WAL is left
// resumable, and restarting against the same campaign directory continues
// each campaign bit-identically.
func (s *Server) PauseCampaigns() {
	s.camps.mu.Lock()
	rcs := make([]*runningCampaign, 0, len(s.camps.byID))
	for _, rc := range s.camps.byID {
		rcs = append(rcs, rc)
	}
	s.camps.mu.Unlock()
	for _, rc := range rcs {
		rc.c.Pause()
	}
	for _, rc := range rcs {
		<-rc.c.Done()
	}
}
