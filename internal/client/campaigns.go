package client

import (
	"context"
	"fmt"
	"time"
)

// CampaignRequest mirrors the server's POST /api/v1/campaigns body. Zero-valued
// fields select server-side defaults.
type CampaignRequest struct {
	Budget        int     `json:"budget,omitempty"`
	Weights       string  `json:"weights,omitempty"`
	Coverage      string  `json:"coverage,omitempty"`
	Rule          string  `json:"rule,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	MaxRounds     int     `json:"max_rounds,omitempty"`
	MaxAttempts   int     `json:"max_attempts,omitempty"`
	TimeoutMs     float64 `json:"timeout_ms,omitempty"`
	BackoffBaseMs float64 `json:"backoff_base_ms,omitempty"`
	BackoffCapMs  float64 `json:"backoff_cap_ms,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	TimeScale     float64 `json:"time_scale,omitempty"`
	Parallelism   int     `json:"parallelism,omitempty"`
	MeanLatencyMs float64 `json:"mean_latency_ms,omitempty"`
	NonResponse   float64 `json:"non_response,omitempty"`
	Decline       float64 `json:"decline,omitempty"`
}

// CampaignWave summarizes one solicitation wave of a campaign round.
type CampaignWave struct {
	Attempt   int     `json:"attempt"`
	BackoffMs float64 `json:"backoff_ms"`
	Answered  int     `json:"answered"`
	Late      int     `json:"late"`
	Silent    int     `json:"silent"`
	Declined  int     `json:"declined"`
}

// CampaignRound is one round of a campaign's transcript.
type CampaignRound struct {
	Round    int            `json:"round"`
	Repaired bool           `json:"repaired"`
	Selected []int          `json:"selected"`
	Dead     []int          `json:"dead"`
	Waves    []CampaignWave `json:"waves"`
	Coverage float64        `json:"coverage"`
}

// Campaign is the server's view of one procurement campaign. State is one of
// "running", "converged", "exhausted", "cancelled" or "failed"; Rounds is
// populated only by the per-campaign detail endpoint.
type Campaign struct {
	ID       int             `json:"id"`
	Epoch    uint64          `json:"epoch"`
	State    string          `json:"state"`
	Budget   int             `json:"budget"`
	Round    int             `json:"round"`
	Accepted []int           `json:"accepted"`
	Declined []int           `json:"declined"`
	Dead     []int           `json:"dead"`
	Pending  []int           `json:"pending"`
	Coverage float64         `json:"coverage"`
	Rounds   []CampaignRound `json:"rounds"`
	Error    string          `json:"error"`
}

// Terminal reports whether the campaign has reached a final state.
func (c Campaign) Terminal() bool { return c.State != "running" }

// CreateCampaign starts an asynchronous procurement campaign and returns its
// initial summary; poll with Campaign or WaitCampaign for progress.
func (c *Client) CreateCampaign(ctx context.Context, req CampaignRequest) (Campaign, error) {
	var out Campaign
	return out, c.post(ctx, "/api/v1/campaigns", req, &out)
}

// Campaigns lists all campaign summaries, oldest first.
func (c *Client) Campaigns(ctx context.Context) ([]Campaign, error) {
	var out []Campaign
	return out, c.get(ctx, "/api/v1/campaigns", nil, &out)
}

// Campaign fetches one campaign with its full round transcript.
func (c *Client) Campaign(ctx context.Context, id int) (Campaign, error) {
	var out Campaign
	return out, c.get(ctx, fmt.Sprintf("/api/v1/campaigns/%d", id), nil, &out)
}

// CancelCampaign asks a running campaign to stop; the campaign settles into
// the "cancelled" state at its next wave boundary.
func (c *Client) CancelCampaign(ctx context.Context, id int) (Campaign, error) {
	var out Campaign
	return out, c.post(ctx, fmt.Sprintf("/api/v1/campaigns/%d/cancel", id), struct{}{}, &out)
}

// WaitCampaign polls a campaign every poll interval (default 250ms) until it
// reaches a terminal state or ctx ends.
func (c *Client) WaitCampaign(ctx context.Context, id int, poll time.Duration) (Campaign, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		camp, err := c.Campaign(ctx, id)
		if err != nil {
			return camp, err
		}
		if camp.Terminal() {
			return camp, nil
		}
		select {
		case <-ctx.Done():
			return camp, ctx.Err()
		case <-t.C:
		}
	}
}
