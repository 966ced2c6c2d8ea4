// Package campaign is the opinion-procurement orchestrator: it drives a
// diverse selection (internal/core) through asynchronous multi-round
// solicitation against a population that answers late, not at all, or
// declines — the active procurement loop of the paper's Section 1/8 story
// that a passive batch lookup (opinions.Procure) cannot model.
//
// One campaign runs rounds. A round selects the users that best repair the
// panel's remaining coverage (core.GreedyCompleteRule over the groups the
// current respondents leave uncovered, excluding users already declared
// unresponsive or declined), then solicits them through a worker pool in
// *waves*: every pending user is asked once per wave, answers slower than
// the per-solicitation timeout are retried in the next wave after capped
// exponential backoff, and users still silent after the final wave are
// declared dead. The next round tops the panel back up — coverage repair —
// and the campaign converges when the accepted panel reaches the budget, or
// gives up when candidates or rounds run out.
//
// Every round, wave and terminal verdict is journaled to a write-ahead log
// in the repolog style before the orchestrator proceeds, and the simulated
// population derives all randomness from pure (seed, user, round, attempt)
// streams, so a killed orchestrator resumed from the WAL replays into the
// exact state the crash interrupted and continues to a bit-identical
// transcript.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/profile"
)

// Outcome classifies one solicitation attempt.
type Outcome uint8

const (
	// OutcomeAnswered: the user responded within the timeout.
	OutcomeAnswered Outcome = 1
	// OutcomeLate: an answer exists but took longer than the timeout — the
	// solicitation is retried next wave.
	OutcomeLate Outcome = 2
	// OutcomeSilent: no answer at all this attempt.
	OutcomeSilent Outcome = 3
	// OutcomeDeclined: explicit refusal; the user leaves the campaign.
	OutcomeDeclined Outcome = 4
)

// String renders the outcome for transcripts and API payloads.
func (o Outcome) String() string {
	switch o {
	case OutcomeAnswered:
		return "answered"
	case OutcomeLate:
		return "late"
	case OutcomeSilent:
		return "silent"
	case OutcomeDeclined:
		return "declined"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// SolicitResult is one user's outcome in one wave.
type SolicitResult struct {
	User      profile.UserID
	Outcome   Outcome
	LatencyMs float64
}

// WaveRecord is one solicitation wave of a round: every still-pending user
// asked once, results in canonical (ascending user) order.
type WaveRecord struct {
	Attempt   int
	BackoffMs float64
	Results   []SolicitResult
}

// RoundRecord is one round of the campaign transcript.
type RoundRecord struct {
	Round int
	// Selected is the round's newly selected panel in greedy pick order.
	// Rounds after the first are repairs: they top the panel back up after
	// dropouts.
	Selected []profile.UserID
	Repaired bool
	Waves    []WaveRecord
	// Dead lists the users declared unresponsive at round end.
	Dead []profile.UserID
	// Coverage is the accepted panel's weighted group coverage
	// (Instance.Score) after the round.
	Coverage float64
}

// Config parameterizes a campaign. The zero value of every field selects a
// default (see withDefaults); Seed fully determines the simulated
// population's behavior.
type Config struct {
	// Budget is the panel size the campaign tries to fill with respondents.
	Budget int `json:"budget"`
	// MaxRounds bounds select→solicit→repair cycles (default 6).
	MaxRounds int `json:"max_rounds"`
	// MaxAttempts is the solicitation attempts per user per round (default 3).
	MaxAttempts int `json:"max_attempts"`
	// TimeoutMs is the per-solicitation timeout in simulated milliseconds
	// (default 1500): slower answers count as late and are retried.
	TimeoutMs float64 `json:"timeout_ms"`
	// BackoffBaseMs/BackoffCapMs shape the capped exponential backoff before
	// retry waves: wave a waits min(base·2^(a−2), cap) (defaults 400/4000).
	BackoffBaseMs float64 `json:"backoff_base_ms"`
	BackoffCapMs  float64 `json:"backoff_cap_ms"`
	// Workers is the solicitation worker-pool size (default 8).
	Workers int `json:"workers"`
	// TimeScale converts simulated milliseconds to wall-clock sleep:
	// wall = simulated·TimeScale. 0 (the default) runs as fast as possible;
	// 1.0 is real time. It never affects outcomes, only pacing.
	TimeScale float64 `json:"time_scale"`
	// Seed drives every random stream of the simulated population.
	Seed int64 `json:"seed"`
	// Rule names the selection rule the panel rounds optimize ("" selects
	// the default coverage rule). Part of campaign identity: it is journaled,
	// and every repair round completes the accepted panel under the same
	// rule's credit schedule. omitempty keeps pre-rule WALs replayable.
	Rule string `json:"rule,omitempty"`
	// Parallelism is the selection engine's worker count (0 = sequential).
	Parallelism int `json:"parallelism"`
	// Behavior parameterizes the simulated population.
	Behavior Behavior `json:"behavior"`
	// Metrics, when non-nil, counts rounds, solicitations and repair coverage
	// (build one with obs.NewCampaignMetrics). Excluded from the journaled
	// configuration — observability wiring is not part of campaign identity,
	// and only live progress is counted: WAL replay increments nothing.
	Metrics *obs.CampaignMetrics `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 6
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.TimeoutMs <= 0 {
		c.TimeoutMs = 1500
	}
	if c.BackoffBaseMs <= 0 {
		c.BackoffBaseMs = 400
	}
	if c.BackoffCapMs <= 0 {
		c.BackoffCapMs = 4000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.TimeScale < 0 {
		c.TimeScale = 0
	}
	if c.Parallelism < 0 {
		c.Parallelism = 0
	}
	c.Behavior = c.Behavior.withDefaults()
	return c
}

// Status is a point-in-time snapshot of a campaign for pollers.
type Status struct {
	Budget    int
	Round     int
	Accepted  []profile.UserID
	Declined  []profile.UserID
	Dead      []profile.UserID
	Pending   []profile.UserID
	Coverage  float64
	Done      bool
	Converged bool
	Cancelled bool
	// Paused reports that Run returned at a journaled boundary without a
	// terminal verdict: reopening the WAL resumes the campaign exactly
	// where it stopped.
	Paused bool
	Err    string
}

// Stats aggregates orchestration-side measurements (wall-clock, so excluded
// from the deterministic transcript).
type Stats struct {
	Rounds           int
	Waves            int
	Solicited        int
	RepairSelections int
	SelectWallMs     float64
	RepairWallMs     float64
	RepairedUsers    int
}

// Campaign is one orchestrated procurement run. Construct with New or
// NewWithWAL, drive with Run (once), observe with Status/Transcript, stop
// with Cancel.
type Campaign struct {
	inst   *groups.Instance
	pop    Population
	cfg    Config
	wal    *WAL
	cfgRaw []byte
	// rule is cfg.Rule resolved against the core registry; ruleErr holds a
	// resolution failure (unknown name) surfaced by the first Run — New has
	// no error channel and a bad name must not panic a server.
	rule    *core.Rule
	ruleErr error

	mu sync.Mutex
	st struct {
		round     int
		accepted  []profile.UserID
		declined  []profile.UserID
		dead      []profile.UserID
		rounds    []RoundRecord
		done      bool
		converged bool
		cancelled bool
		err       error
		// open-round bookkeeping, so a WAL resume re-enters mid-round.
		open        bool
		pending     []profile.UserID
		lastAttempt int
	}
	stats Stats

	cancelCh   chan struct{}
	cancelOnce sync.Once
	pauseCh    chan struct{}
	pauseOnce  sync.Once
	doneCh     chan struct{}
}

// New builds an ephemeral (unjournaled) campaign over inst. pop may be nil,
// selecting the simulated population derived from cfg.Seed and cfg.Behavior.
func New(inst *groups.Instance, pop Population, cfg Config) *Campaign {
	cfg = cfg.withDefaults()
	if pop == nil {
		pop = NewSimPopulation(cfg.Seed, cfg.Behavior)
	}
	raw, _ := json.Marshal(cfg)
	rule, ruleErr := core.LookupRule(cfg.Rule)
	return &Campaign{
		inst: inst, pop: pop, cfg: cfg, cfgRaw: raw,
		rule: rule, ruleErr: ruleErr,
		cancelCh: make(chan struct{}), pauseCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// NewWithWAL builds a journaled campaign at path, creating the journal when
// absent and otherwise *resuming*: the valid record prefix (a torn tail from
// a crash is truncated) is replayed into orchestrator state, the recorded
// configuration is required to match cfg, and Run continues mid-round from
// the first unjournaled wave.
func NewWithWAL(inst *groups.Instance, pop Population, cfg Config, path string) (*Campaign, error) {
	c := New(inst, pop, cfg)
	w, events, err := OpenWAL(path)
	if err != nil {
		return nil, err
	}
	c.wal = w
	if len(events) == 0 {
		if err := w.AppendConfig(c.cfgRaw); err != nil {
			w.Close()
			return nil, err
		}
		return c, nil
	}
	first, ok := events[0].(evConfig)
	if !ok {
		w.Close()
		return nil, fmt.Errorf("campaign: journal %s does not start with a config record", path)
	}
	if !bytes.Equal(first.raw, c.cfgRaw) {
		w.Close()
		return nil, fmt.Errorf("campaign: journal %s was written under a different configuration", path)
	}
	if err := c.applyEvents(events[1:]); err != nil {
		w.Close()
		return nil, err
	}
	return c, nil
}

// applyEvents folds replayed journal records into orchestrator state.
func (c *Campaign) applyEvents(events []walEvent) error {
	for _, ev := range events {
		switch e := ev.(type) {
		case evRound:
			c.st.round = e.round
			c.st.rounds = append(c.st.rounds, RoundRecord{
				Round: e.round, Selected: e.selected, Repaired: e.round > 1,
			})
			c.st.open = true
			c.st.lastAttempt = 0
			c.st.pending = sortedUsers(e.selected)
		case evWave:
			if !c.st.open || len(c.st.rounds) == 0 {
				return fmt.Errorf("campaign: journal wave without an open round")
			}
			c.recordWave(WaveRecord{Attempt: e.attempt, BackoffMs: e.backoffMs, Results: e.results})
		case evRoundEnd:
			if !c.st.open || len(c.st.rounds) == 0 {
				return fmt.Errorf("campaign: journal round-end without an open round")
			}
			c.closeRound(e.dead, e.coverage)
		case evDone:
			c.st.done = true
			c.st.converged = e.status == doneConverged
			c.st.cancelled = e.status == doneCancelled
			c.st.accepted = e.panel
		default:
			return fmt.Errorf("campaign: unexpected journal event %T", ev)
		}
	}
	return nil
}

// recordWave appends a wave to the open round and routes its outcomes:
// answers join the panel, refusals leave the campaign, silent/late users
// stay pending for the next wave. Callers hold no lock during replay; the
// live path wraps it in c.mu.
func (c *Campaign) recordWave(w WaveRecord) {
	rr := &c.st.rounds[len(c.st.rounds)-1]
	rr.Waves = append(rr.Waves, w)
	c.st.lastAttempt = w.Attempt
	var still []profile.UserID
	for _, res := range w.Results {
		switch res.Outcome {
		case OutcomeAnswered:
			c.st.accepted = append(c.st.accepted, res.User)
		case OutcomeDeclined:
			c.st.declined = append(c.st.declined, res.User)
		default:
			still = append(still, res.User)
		}
	}
	c.st.pending = still
	c.stats.Waves++
	c.stats.Solicited += len(w.Results)
}

// closeRound finalizes the open round: pending users are dead, coverage is
// the accepted panel's score.
func (c *Campaign) closeRound(dead []profile.UserID, coverage float64) {
	rr := &c.st.rounds[len(c.st.rounds)-1]
	rr.Dead = dead
	rr.Coverage = coverage
	c.st.dead = append(c.st.dead, dead...)
	c.st.open = false
	c.st.pending = nil
	c.stats.Rounds++
}

// Cancel asks the orchestrator to stop; Run journals a cancelled verdict at
// the next wave boundary. Safe to call at any time, more than once.
func (c *Campaign) Cancel() { c.cancelOnce.Do(func() { close(c.cancelCh) }) }

// Pause asks the orchestrator to stop at the next journaled boundary
// *without* a terminal verdict — the graceful-shutdown counterpart of
// Cancel. Run returns with the WAL holding a clean record prefix and no done
// record, so NewWithWAL on the same path replays into exactly the
// interrupted state and continues to a bit-identical transcript. Safe to
// call at any time, more than once; Cancel wins when both are requested.
func (c *Campaign) Pause() { c.pauseOnce.Do(func() { close(c.pauseCh) }) }

func (c *Campaign) isCancelled() bool {
	select {
	case <-c.cancelCh:
		return true
	default:
		return false
	}
}

func (c *Campaign) isPaused() bool {
	select {
	case <-c.pauseCh:
		return true
	default:
		return false
	}
}

// Done is closed when Run returns.
func (c *Campaign) Done() <-chan struct{} { return c.doneCh }

// Status snapshots the campaign for pollers (server GET handlers).
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Budget:    c.cfg.Budget,
		Round:     c.st.round,
		Accepted:  append([]profile.UserID(nil), c.st.accepted...),
		Declined:  append([]profile.UserID(nil), c.st.declined...),
		Dead:      append([]profile.UserID(nil), c.st.dead...),
		Pending:   append([]profile.UserID(nil), c.st.pending...),
		Done:      c.st.done,
		Converged: c.st.converged,
		Cancelled: c.st.cancelled,
		Paused:    c.isPaused() && !c.st.done,
		Coverage:  c.inst.Score(c.st.accepted),
	}
	if c.st.err != nil {
		st.Err = c.st.err.Error()
	}
	return st
}

// Transcript deep-copies the round records so far. After Run returns it is
// the campaign's full deterministic transcript.
func (c *Campaign) Transcript() []RoundRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoundRecord, len(c.st.rounds))
	for i, rr := range c.st.rounds {
		cp := rr
		cp.Selected = append([]profile.UserID(nil), rr.Selected...)
		cp.Dead = append([]profile.UserID(nil), rr.Dead...)
		cp.Waves = make([]WaveRecord, len(rr.Waves))
		for j, w := range rr.Waves {
			wc := w
			wc.Results = append([]SolicitResult(nil), w.Results...)
			cp.Waves[j] = wc
		}
		out[i] = cp
	}
	return out
}

// Stats reports orchestration measurements accumulated so far.
func (c *Campaign) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	return s
}

// Config returns the campaign's defaulted configuration.
func (c *Campaign) Config() Config { return c.cfg }

// Run drives the campaign to a terminal verdict. It must be called exactly
// once; it blocks until the campaign converges, exhausts its rounds or
// candidates, is cancelled, or journaling fails. On a journaled campaign the
// WAL is closed before Run returns.
func (c *Campaign) Run() error {
	err := c.run()
	c.mu.Lock()
	if err != nil {
		c.st.err = err
	}
	c.mu.Unlock()
	if c.wal != nil {
		if cerr := c.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	close(c.doneCh)
	return err
}

func (c *Campaign) run() error {
	if c.ruleErr != nil {
		return fmt.Errorf("campaign: %w", c.ruleErr)
	}
	c.mu.Lock()
	if c.st.done {
		c.mu.Unlock()
		return nil
	}
	round := c.st.round
	resume := c.st.open
	pending := append([]profile.UserID(nil), c.st.pending...)
	startAttempt := c.st.lastAttempt + 1
	c.mu.Unlock()

	if resume {
		if err := c.finishRound(round, pending, startAttempt); err != nil {
			return err
		}
	}
	for {
		if c.isCancelled() {
			return c.finalize(doneCancelled)
		}
		if c.isPaused() {
			// Between rounds is a journaled boundary: no open round, no
			// verdict. Resume re-enters here and selects the next round.
			return nil
		}
		c.mu.Lock()
		need := c.cfg.Budget - len(c.st.accepted)
		c.mu.Unlock()
		if need <= 0 {
			return c.finalize(doneConverged)
		}
		if round >= c.cfg.MaxRounds {
			return c.finalize(doneExhausted)
		}
		round++
		selected, err := c.selectPanel(round, need)
		if err != nil {
			return err
		}
		if len(selected) == 0 {
			return c.finalize(doneExhausted)
		}
		if c.wal != nil {
			if err := c.wal.AppendRound(round, selected); err != nil {
				return err
			}
		}
		c.mu.Lock()
		c.st.round = round
		c.st.rounds = append(c.st.rounds, RoundRecord{
			Round: round, Selected: selected, Repaired: round > 1,
		})
		c.st.open = true
		c.st.lastAttempt = 0
		c.st.pending = sortedUsers(selected)
		pending = append([]profile.UserID(nil), c.st.pending...)
		c.mu.Unlock()
		if err := c.finishRound(round, pending, 1); err != nil {
			return err
		}
	}
}

// selectPanel picks the users that best repair the accepted panel's
// remaining coverage: GreedyCompleteRule against the residual instance under
// the campaign's rule, with declined and dead users excluded from the
// candidate pool. The error is rule/instance incompatibility (EBS weights
// under a weight-reading rule) — selection itself cannot fail.
func (c *Campaign) selectPanel(round, need int) ([]profile.UserID, error) {
	c.mu.Lock()
	accepted := append([]profile.UserID(nil), c.st.accepted...)
	allowed := make([]bool, c.inst.Index.Repo().NumUsers())
	for i := range allowed {
		allowed[i] = true
	}
	for _, u := range c.st.declined {
		allowed[u] = false
	}
	for _, u := range c.st.dead {
		allowed[u] = false
	}
	c.mu.Unlock()

	start := time.Now()
	res, err := core.GreedyCompleteRule(c.inst, need, accepted, allowed, c.rule, core.Options{Parallelism: c.cfg.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("campaign: round %d selection: %w", round, err)
	}
	wallMs := float64(time.Since(start)) / float64(time.Millisecond)

	c.mu.Lock()
	c.stats.SelectWallMs += wallMs
	if round > 1 {
		c.stats.RepairSelections++
		c.stats.RepairWallMs += wallMs
		c.stats.RepairedUsers += len(res.Users)
	}
	c.mu.Unlock()
	return res.Users, nil
}

// finishRound runs (or, after a resume, continues) a round's solicitation
// waves, then declares the still-silent users dead and journals the round
// end. On cancellation or pause it returns with the round left open; a
// cancel then journals the cancelled verdict, a pause journals nothing (the
// wave already durable is the resume point).
func (c *Campaign) finishRound(round int, pending []profile.UserID, startAttempt int) error {
	for a := startAttempt; a <= c.cfg.MaxAttempts && len(pending) > 0; a++ {
		if c.isCancelled() || c.isPaused() {
			return nil
		}
		backoff := 0.0
		if a > 1 {
			backoff = math.Min(c.cfg.BackoffBaseMs*math.Pow(2, float64(a-2)), c.cfg.BackoffCapMs)
			c.sleepSim(backoff)
		}
		results := c.solicitWave(round, a, pending)
		if c.wal != nil {
			if err := c.wal.AppendWave(round, a, backoff, results); err != nil {
				return err
			}
		}
		c.mu.Lock()
		c.recordWave(WaveRecord{Attempt: a, BackoffMs: backoff, Results: results})
		pending = append([]profile.UserID(nil), c.st.pending...)
		c.mu.Unlock()
		c.observeWave(results)
	}
	if c.isCancelled() || c.isPaused() {
		return nil
	}
	c.mu.Lock()
	coverage := c.inst.Score(c.st.accepted)
	// The previous round's coverage, for the repair-recovered gauge of this
	// one. Replayed rounds already closed never reach here, so metrics see
	// live progress only.
	prev := 0.0
	if n := len(c.st.rounds); n >= 2 {
		prev = c.st.rounds[n-2].Coverage
	}
	c.mu.Unlock()
	if c.wal != nil {
		if err := c.wal.AppendRoundEnd(round, pending, coverage); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.closeRound(pending, coverage)
	c.mu.Unlock()
	if met := c.cfg.Metrics; met != nil {
		met.Rounds.Inc()
		if round > 1 {
			met.RepairRounds.Inc()
			if d := coverage - prev; d > 0 {
				met.Recovered.Add(d)
			}
		}
	}
	return nil
}

// observeWave counts one live wave's outcomes (late and silent both count as
// timeouts — the user did not answer within the window).
func (c *Campaign) observeWave(results []SolicitResult) {
	met := c.cfg.Metrics
	if met == nil {
		return
	}
	met.Waves.Inc()
	met.Solicitations.Add(uint64(len(results)))
	for _, res := range results {
		switch res.Outcome {
		case OutcomeAnswered:
			met.Answered.Inc()
		case OutcomeDeclined:
			met.Declined.Inc()
		default:
			met.Timeouts.Inc()
		}
	}
}

// solicitWave asks every pending user once, through the worker pool. The
// population is a pure function of (user, round, attempt), so scheduling
// cannot affect outcomes; results are returned in canonical (ascending
// user) order because pending is kept sorted.
func (c *Campaign) solicitWave(round, attempt int, pending []profile.UserID) []SolicitResult {
	results := make([]SolicitResult, len(pending))
	workers := c.cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				u := pending[i]
				resp := c.pop.Respond(u, round, attempt)
				// The orchestrator waits at most the timeout for an answer.
				c.sleepSim(math.Min(resp.LatencyMs, c.cfg.TimeoutMs))
				results[i] = SolicitResult{
					User:      u,
					Outcome:   classify(resp, c.cfg.TimeoutMs),
					LatencyMs: resp.LatencyMs,
				}
			}
		}()
	}
	for i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// classify maps a population response to a solicitation outcome under the
// orchestrator's timeout.
func classify(r Response, timeoutMs float64) Outcome {
	switch {
	case r.Declined:
		return OutcomeDeclined
	case !r.Answered:
		return OutcomeSilent
	case r.LatencyMs <= timeoutMs:
		return OutcomeAnswered
	default:
		return OutcomeLate
	}
}

// finalize journals the terminal verdict and marks the campaign done.
func (c *Campaign) finalize(status byte) error {
	c.mu.Lock()
	panel := append([]profile.UserID(nil), c.st.accepted...)
	c.mu.Unlock()
	if c.wal != nil {
		if err := c.wal.AppendDone(status, panel); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.st.done = true
	c.st.converged = status == doneConverged
	c.st.cancelled = status == doneCancelled
	c.mu.Unlock()
	return nil
}

// sleepSim converts simulated milliseconds to wall-clock sleep under
// TimeScale, returning early on cancellation. TimeScale 0 never sleeps.
func (c *Campaign) sleepSim(simMs float64) {
	if c.cfg.TimeScale <= 0 || simMs <= 0 {
		return
	}
	d := time.Duration(simMs * c.cfg.TimeScale * float64(time.Millisecond))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.cancelCh:
	case <-c.pauseCh:
	}
}

func sortedUsers(users []profile.UserID) []profile.UserID {
	out := append([]profile.UserID(nil), users...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
