// Package client is a typed Go client for the Podium HTTP API
// (internal/server): status, group listing, named configurations, plain and
// customized selection, declarative queries and distribution comparisons.
// External integrations — a survey tool, a CRM — would talk to a Podium
// deployment through exactly these calls.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"podium/internal/obs"
	"podium/internal/server"
)

// DefaultTimeout bounds every request issued through a context without its
// own deadline, so a wedged server cannot hang a caller forever.
const DefaultTimeout = 30 * time.Second

// Client talks to one Podium server.
type Client struct {
	baseURL string
	http    *http.Client
	timeout time.Duration
	// retry and breaker are nil on a plain client; NewResilient sets them.
	retry   *retryPolicy
	breaker *breaker
	// met counts retries and breaker transitions; always non-nil — without a
	// registry it is the zero family, a no-op end to end.
	met *obs.ClientMetrics
}

// New builds a client for the server at baseURL (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient. Requests carry DefaultTimeout
// unless the caller's context brings its own deadline; see NewWithTimeout.
func New(baseURL string, httpClient *http.Client) *Client {
	return NewWithTimeout(baseURL, httpClient, DefaultTimeout)
}

// NewWithTimeout is New with an explicit per-request timeout. timeout <= 0
// disables the client-side deadline entirely.
func NewWithTimeout(baseURL string, httpClient *http.Client, timeout time.Duration) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: httpClient,
		timeout: timeout, met: &obs.ClientMetrics{}}
}

// NewResilient is New plus retries and (optionally) a circuit breaker:
// transient failures — transport errors, 5xx, and the hardened server's 429
// admission-control responses — are retried with jittered exponential
// backoff, honoring a server-sent Retry-After. GETs retry on everything
// transient; POSTs retry only on 429 (never applied) unless
// opts.Retry.RetryNonIdempotent opts into at-least-once semantics.
func NewResilient(baseURL string, httpClient *http.Client, opts ResilienceOptions) *Client {
	c := New(baseURL, httpClient)
	c.retry = newRetryPolicy(opts.Retry)
	if opts.Metrics != nil {
		c.met = opts.Metrics
	}
	if opts.Breaker != nil {
		c.breaker = newBreaker(*opts.Breaker, c.met)
	}
	return c
}

// Status is the dataset shape the server reports.
type Status struct {
	Name       string `json:"name"`
	Users      int    `json:"users"`
	Properties int    `json:"properties"`
	Groups     int    `json:"groups"`
	// Epoch is the server's published snapshot epoch (0 on servers predating
	// the field). The shard coordinator surfaces it per shard in merged
	// selections.
	Epoch uint64 `json:"epoch"`
}

// GroupInfo is one row of the server's group list.
type GroupInfo struct {
	ID     int     `json:"id"`
	Label  string  `json:"label"`
	Size   int     `json:"size"`
	Weight float64 `json:"weight"`
}

// SelectedUser is one selected user with its explanation digest.
type SelectedUser struct {
	ID        int      `json:"id"`
	Name      string   `json:"name"`
	Marginal  float64  `json:"marginal"`
	TopGroups []string `json:"top_groups"`
}

// GroupCoverage is the subset-group explanation of one group.
type GroupCoverage struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Weight   float64 `json:"weight"`
	Required int     `json:"required"`
	Actual   int     `json:"actual"`
	Covered  bool    `json:"covered"`
}

// Selection is a full selection response.
type Selection struct {
	Users []SelectedUser `json:"users"`
	Score float64        `json:"score"`
	// Rule names the selection rule the server ran under; empty means the
	// default coverage rule (the server omits the field for it).
	Rule          string          `json:"rule,omitempty"`
	TopKCovered   int             `json:"top_k_covered"`
	TopK          int             `json:"top_k"`
	PriorityScore float64         `json:"priority_score"`
	StandardScore float64         `json:"standard_score"`
	Groups        []GroupCoverage `json:"groups"`
	// Degraded and Shards are set only by a shard coordinator: Degraded
	// marks a merge that lost ≥1 shard's winners to a fan-out failure, and
	// Shards reports each shard's health and snapshot epoch.
	Degraded bool          `json:"degraded,omitempty"`
	Shards   []ShardReport `json:"shards,omitempty"`
}

// ShardReport is the coordinator's per-shard record attached to a merged
// selection.
type ShardReport struct {
	URL     string `json:"url"`
	Epoch   uint64 `json:"epoch"`
	OK      bool   `json:"ok"`
	Winners int    `json:"winners"`
	Error   string `json:"error,omitempty"`
}

// SelectRequest mirrors the server's selection request body.
type SelectRequest struct {
	Budget   int                 `json:"budget,omitempty"`
	Weights  string              `json:"weights,omitempty"`
	Coverage string              `json:"coverage,omitempty"`
	Rule     string              `json:"rule,omitempty"`
	Feedback server.FeedbackJSON `json:"feedback,omitempty"`
	Config   string              `json:"config,omitempty"`
	TopK     int                 `json:"top_k,omitempty"`
}

// RuleInfo is one row of the server's selection-rule registry
// (GET /api/v1/rules).
type RuleInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Default     bool   `json:"default,omitempty"`
}

// Distribution compares a property's bucket distribution between the
// population and a subset.
type Distribution struct {
	Property string    `json:"property"`
	Buckets  []string  `json:"buckets"`
	All      []float64 `json:"all"`
	Subset   []float64 `json:"subset"`
}

// Status fetches the dataset shape.
func (c *Client) Status() (Status, error) {
	return c.StatusCtx(context.Background())
}

// StatusCtx is Status with caller-controlled cancellation: the shard
// coordinator's health registry probes replicas on a deadline, and its router
// cancels the losing half of a hedged pair mid-flight.
func (c *Client) StatusCtx(ctx context.Context) (Status, error) {
	var s Status
	return s, c.get(ctx, "/api/v1/status", nil, &s)
}

// Groups lists the largest groups, up to limit (0 = server default).
func (c *Client) Groups(limit int) ([]GroupInfo, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var gs []GroupInfo
	return gs, c.get(context.Background(), "/api/v1/groups", q, &gs)
}

// Configurations lists the administrator-provided named configurations.
func (c *Client) Configurations() ([]server.NamedConfig, error) {
	var cs []server.NamedConfig
	return cs, c.get(context.Background(), "/api/v1/configurations", nil, &cs)
}

// Rules lists the selection rules the server's objective registry offers
// (GET /api/v1/rules); exactly one row is marked Default.
func (c *Client) Rules() ([]RuleInfo, error) {
	var rs []RuleInfo
	return rs, c.get(context.Background(), "/api/v1/rules", nil, &rs)
}

// Select runs a selection.
func (c *Client) Select(req SelectRequest) (Selection, error) {
	return c.SelectCtx(context.Background(), req)
}

// SelectCtx is Select with caller-controlled cancellation — the primitive the
// coordinator's hedged fan-out is built on: first success wins, the loser's
// context is cancelled and its connection released.
func (c *Client) SelectCtx(ctx context.Context, req SelectRequest) (Selection, error) {
	var sel Selection
	return sel, c.post(ctx, "/api/v1/select", req, &sel)
}

// BaseURL reports the server this client targets.
func (c *Client) BaseURL() string { return c.baseURL }

// Ready performs one uninstrumented GET /readyz probe: no retries, no
// breaker participation. Health registries probe through this so a probe
// can never be amplified into a retry storm against a struggling server,
// and so probe outcomes stay separate from the traffic the breaker judges.
func (c *Client) Ready(ctx context.Context) error {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/readyz", nil)
	if err != nil {
		return fmt.Errorf("client: readyz: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: readyz: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// BreakerState exposes the circuit breaker's current state as a passive
// health signal: a replica whose breaker is open is known-bad without
// spending a probe on it. Clients built without a breaker report
// BreakerNone.
func (c *Client) BreakerState() BreakerState {
	if c.breaker == nil {
		return BreakerNone
	}
	return c.breaker.currentState()
}

// Query runs a declarative-language selection.
func (c *Client) Query(queryText string) (Selection, error) {
	var sel Selection
	body := struct {
		Query string `json:"query"`
	}{queryText}
	return sel, c.post(context.Background(), "/api/v1/query", body, &sel)
}

// AddUser creates a user with an initial profile on a mutable server
// (POST /api/v1/users). It returns the new user's ID and group count.
func (c *Client) AddUser(name string, properties map[string]float64) (id, groups int, err error) {
	body := struct {
		Name       string             `json:"name"`
		Properties map[string]float64 `json:"properties,omitempty"`
	}{name, properties}
	var resp struct {
		ID     int `json:"id"`
		Groups int `json:"groups"`
	}
	if err := c.post(context.Background(), "/api/v1/users", body, &resp); err != nil {
		return 0, 0, err
	}
	return resp.ID, resp.Groups, nil
}

// SetScore updates one property score on a mutable server
// (POST /api/v1/scores).
func (c *Client) SetScore(user int, label string, score float64) error {
	body := struct {
		User  int     `json:"user"`
		Label string  `json:"label"`
		Score float64 `json:"score"`
	}{user, label, score}
	var resp struct {
		Status string `json:"status"`
	}
	return c.post(context.Background(), "/api/v1/scores", body, &resp)
}

// Distribution fetches a property's population-versus-subset distribution.
func (c *Client) Distribution(property string, users []int) (Distribution, error) {
	q := url.Values{}
	q.Set("prop", property)
	if len(users) > 0 {
		parts := make([]string, len(users))
		for i, u := range users {
			parts[i] = strconv.Itoa(u)
		}
		q.Set("users", strings.Join(parts, ","))
	}
	var d Distribution
	return d, c.get(context.Background(), "/api/v1/distribution", q, &d)
}

// withDeadline applies the client's default timeout when ctx has no deadline
// of its own. The returned cancel must run after the response body is read.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok || c.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

func (c *Client) get(ctx context.Context, path string, query url.Values, out interface{}) error {
	u := c.baseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return c.do(ctx, http.MethodGet, path, u, nil, out)
}

func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	return c.do(ctx, http.MethodPost, path, c.baseURL+path, payload, out)
}

// do performs one logical request, retrying transient failures when the
// client is resilient. Each attempt gets a fresh body reader and its own
// deadline; the breaker sees one outcome per attempt.
func (c *Client) do(ctx context.Context, method, path, url string, payload []byte, out interface{}) error {
	attempts := 1
	if c.retry != nil {
		attempts = c.retry.opts.MaxAttempts
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if c.breaker != nil && !c.breaker.allow() {
			// An open breaker fails fast without burning an attempt's
			// backoff — the cooldown is the backoff.
			return fmt.Errorf("client: %s %s: %w", method, path, ErrCircuitOpen)
		}
		resp, err := c.attempt(ctx, method, url, payload)
		if err != nil {
			if c.breaker != nil {
				c.breaker.record(true)
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if !c.canRetry(method, 0) || a == attempts || ctx.Err() != nil {
				return lastErr
			}
			c.met.Retries.Inc()
			c.retry.sleep(c.retry.backoff(a))
			continue
		}
		if retriableStatus(resp.StatusCode) && c.canRetry(method, resp.StatusCode) && a < attempts {
			if c.breaker != nil {
				c.breaker.record(true)
			}
			wait, ok := retryAfter(resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			lastErr = fmt.Errorf("client: %s %s: HTTP %d", method, path, resp.StatusCode)
			if !ok {
				wait = c.retry.backoff(a)
			}
			c.met.Retries.Inc()
			c.retry.sleep(wait)
			continue
		}
		if c.breaker != nil {
			c.breaker.record(resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests)
		}
		return decode(resp, path, out)
	}
	return lastErr
}

// attempt issues one HTTP exchange.
func (c *Client) attempt(ctx context.Context, method, url string, payload []byte) (*http.Response, error) {
	ctx, cancel := c.withDeadline(ctx)
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		cancel()
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel must outlive the body read; tie it to Body.Close.
	resp.Body = cancelOnClose{resp.Body, cancel}
	return resp, nil
}

// cancelOnClose releases an attempt's deadline context when its response
// body is closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// canRetry decides whether a failed attempt may be repeated. status 0 means
// a transport error (no response). 429 is always safe: the server sheds
// before applying. Everything else is safe for GETs; POSTs need the
// RetryNonIdempotent opt-in because the mutation may have been applied
// before the failure.
func (c *Client) canRetry(method string, status int) bool {
	if c.retry == nil {
		return false
	}
	if status == http.StatusTooManyRequests {
		return true
	}
	return method == http.MethodGet || c.retry.opts.RetryNonIdempotent
}

// maxResponseBytes caps the response body the client reads.
const maxResponseBytes = 64 << 20

// decode reads one response and decodes a 200's body into out. A
// *Selection is decoded by decodeSelection; its value and error are
// json.Unmarshal's.
func decode(resp *http.Response, path string, out interface{}) error {
	defer resp.Body.Close()
	data, err := readBody(resp, maxResponseBytes)
	if err != nil {
		return fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		if ae := parseAPIError(data, path, resp.StatusCode); ae != nil {
			return ae
		}
		return fmt.Errorf("client: %s: HTTP %d", path, resp.StatusCode)
	}
	if sel, ok := out.(*Selection); ok {
		err = decodeSelection(data, sel)
	} else {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// readBody reads a response body of at most limit bytes. A declared
// Content-Length is read into one buffer of that size, and a declared length
// over the limit fails before anything is allocated; a body that ends short
// of its declared length fails with io.ErrUnexpectedEOF. A body of unknown
// length that runs past the limit fails instead of being cut off.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("declared length %d bytes exceeds the client's %d-byte response cap", resp.ContentLength, limit)
	}
	if resp.ContentLength >= 0 {
		data := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body exceeds the client's %d-byte response cap", limit)
	}
	return data, nil
}
