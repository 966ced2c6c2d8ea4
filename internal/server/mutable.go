package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"podium/internal/codec"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/repolog"
)

// MutableServer extends Server with live profile updates — the operational
// loop Section 9 sketches ("may be easily executed multiple times, e.g., to
// incorporate data updates"). Reads stay on the embedded Server's lock-free
// snapshot path; mutations flow through a single-writer apply loop that
// drains queued requests into batches, appends each batch durably to the
// repository log with one fsync, applies it to a private copy-on-write clone
// of the current epoch through the incremental index path, and publishes the
// result as the next snapshot. Group IDs remain stable for clients holding
// feedback, and a reader admitted mid-batch simply serves the previous epoch.
// The log is the server's only durable state: the bucket cuts β(p) commit in
// it with the batch that derived them, and a restart pins its index to them.
type MutableServer struct {
	*Server
	log  *repolog.Log
	cfg  groups.Config
	opts MutableOptions

	mutCh chan *pendingMut
	quit  chan struct{}
	done  chan struct{}

	// closeMu fences mutation dispatch against Close: dispatchers send on
	// mutCh under RLock, so once Close holds the write lock no send is in
	// flight and setting closed makes later dispatchers fail fast.
	closeMu  sync.RWMutex
	closed   bool
	closeOne sync.Once
	closeErr error

	batches   atomic.Uint64
	mutations atomic.Uint64
	shed      atomic.Uint64

	// failed is the log error that stopped the writer, owned by the apply
	// loop. Once a batch's Sync fails, the batch's records may be in the file
	// or still buffered, and any later Sync would commit them under later
	// acknowledgements; so the writer publishes nothing more and refuses
	// every later mutation, while reads keep serving.
	failed error

	// beforeApply, when set (tests only, before any dispatch), runs at the top
	// of every batch application — the hook overload tests use to hold the
	// writer still while they fill the queue.
	beforeApply func()
	// afterSync, when set (tests only, before any dispatch), runs after each
	// batch's log Sync returns; an error it returns is handled as that Sync's
	// failure, with the batch's records already in the file.
	afterSync func() error
}

// MutableOptions tunes the writer's batching and admission policy.
type MutableOptions struct {
	// BatchWindow is how long the writer waits after the first queued
	// mutation for more to coalesce. Zero (the default) drains
	// opportunistically: whatever is already queued forms the batch, so a
	// lone mutation never waits.
	BatchWindow time.Duration
	// MaxBatch caps mutations per batch. Default 256.
	MaxBatch int
	// QueueDepth bounds the apply-loop mutation queue — the admission
	// control surface. When the queue is full, mutating requests are shed
	// with 429 + Retry-After instead of blocking the handler goroutine;
	// snapshot reads are untouched and keep serving the last published
	// epoch. Default 4×MaxBatch.
	QueueDepth int
	// RetryAfter is the backoff advertised on shed requests (default 1s;
	// rounded up to whole seconds for the Retry-After header).
	RetryAfter time.Duration
}

// NewMutable builds a server over the repository log at path, creating it if
// absent, with default batching options. The grouping module runs once at
// startup; subsequent mutations maintain the index incrementally.
func NewMutable(name, logPath string, cfg groups.Config, configs []NamedConfig) (*MutableServer, error) {
	return NewMutableOpts(name, logPath, cfg, configs, MutableOptions{})
}

// NewMutableOpts is NewMutable with explicit batching options.
func NewMutableOpts(name, logPath string, cfg groups.Config, configs []NamedConfig, opts MutableOptions) (*MutableServer, error) {
	l, err := repolog.Open(logPath)
	if err != nil {
		return nil, err
	}
	if l.Recovered > 0 {
		log.Printf("server: repository log %s: truncated a torn tail of %d bytes", logPath, l.Recovered)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.MaxBatch
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	cuts := l.Buckets()
	if len(cuts) == 0 {
		// A log with no boundaries record migrates the sidecar file where
		// β(p) lived before the log held it: the first batch commits its cuts
		// into the log, and the file is never read again. A sidecar that
		// does not decode fails start-up rather than serving other groups.
		sidecar := logPath + ".buckets"
		switch cuts, err = codec.ReadBucketsFile(sidecar); {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			l.Close()
			return nil, fmt.Errorf("server: bucket sidecar %s: %w (deleting it re-derives the cuts from the repository log)", sidecar, err)
		}
	}
	if len(cuts) > 0 {
		// Pin the rebuilt index to the cuts the live index used: a rebuild
		// that re-ran the splitting method over the replayed scores could
		// derive other cuts, other groups and other panels. The replayed
		// catalog interns labels in log order, so the PropertyIDs address the
		// same properties. Build gets a copy, since the log's map grows as
		// batches stage records.
		cfg.FixedBuckets = maps.Clone(cuts)
	}
	ms := &MutableServer{
		Server: New(name, l.Repository(), cfg, configs),
		log:    l,
		cfg:    cfg,
		opts:   opts,
		mutCh:  make(chan *pendingMut, opts.QueueDepth),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	ms.Handle("users", http.MethodPost, "/api/v1/users", ms.handleAddUser)
	ms.Handle("scores", http.MethodPost, "/api/v1/scores", ms.handleSetScore)
	go ms.applyLoop()
	return ms, nil
}

// stageBuckets stages one boundaries record holding every property ix
// buckets and the log holds no cuts for: all of them in the first batch
// after a boot that derived cuts, and after that each batch's first-sight
// properties. The log only holds cuts of properties the index buckets, so
// equal counts mean there is nothing to stage.
func (ms *MutableServer) stageBuckets(ix *groups.Index) error {
	logged := ms.log.Buckets()
	if ix.NumBucketedProperties() == len(logged) {
		return nil
	}
	cuts := ix.BucketBoundaries()
	for p := range logged {
		delete(cuts, p)
	}
	return ms.log.AppendBuckets(cuts)
}

// Close stops the apply loop (after it drains queued mutations), then flushes
// and closes the backing log. Safe to call more than once.
func (ms *MutableServer) Close() error {
	ms.closeOne.Do(func() {
		ms.closeMu.Lock()
		ms.closed = true
		ms.closeMu.Unlock()
		close(ms.quit)
		<-ms.done
		ms.closeErr = ms.log.Close()
	})
	return ms.closeErr
}

// BatchStats reports how many batches the writer has published and how many
// mutations they contained — mutations/batches is the coalescing factor the
// benchmark suite records.
func (ms *MutableServer) BatchStats() (batches, mutations uint64) {
	return ms.batches.Load(), ms.mutations.Load()
}

// ShedStats reports how many mutating requests admission control turned away
// with 429 because the apply-loop queue was full.
func (ms *MutableServer) ShedStats() uint64 { return ms.shed.Load() }

// pendingMut is one queued mutation awaiting the writer.
type pendingMut struct {
	addUser  *addUserRequest
	setScore *setScoreRequest
	reply    chan mutReply
}

type mutReply struct {
	status int
	body   interface{}
}

// dispatchResult classifies an attempt to hand a mutation to the writer.
type dispatchResult uint8

const (
	dispatchOK       dispatchResult = iota // queued, reply is valid
	dispatchClosing                        // server shutting down
	dispatchOverload                       // queue full: shed with 429
)

// dispatch hands m to the apply loop and waits for its reply. The send is
// non-blocking: a full queue means the single writer is saturated, and
// stalling the handler goroutine here would only move the pile-up into the
// HTTP layer — instead the request is shed (dispatchOverload) so the caller
// can answer 429 + Retry-After while lock-free reads keep serving.
func (ms *MutableServer) dispatch(m *pendingMut) (mutReply, dispatchResult) {
	ms.closeMu.RLock()
	if ms.closed {
		ms.closeMu.RUnlock()
		return mutReply{}, dispatchClosing
	}
	select {
	case ms.mutCh <- m:
	default:
		ms.closeMu.RUnlock()
		ms.shed.Add(1)
		ms.met.Shed.Inc()
		return mutReply{}, dispatchOverload
	}
	ms.closeMu.RUnlock()
	ms.met.QueueDepth.Set(int64(len(ms.mutCh)))
	return <-m.reply, dispatchOK
}

// writeOverloaded answers a shed mutation: 429 with the advertised backoff.
func (ms *MutableServer) writeOverloaded(w http.ResponseWriter, r *http.Request) {
	secs := int(ms.opts.RetryAfter / time.Second)
	if time.Duration(secs)*time.Second < ms.opts.RetryAfter {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, r, http.StatusTooManyRequests, codeOverloaded, "mutation queue full; retry after %ds", secs)
}

// applyLoop is the single writer: it owns the log and the right to publish
// snapshots. Batching means each published epoch costs one CSR rebuild and
// one fsync regardless of how many mutations it absorbs.
func (ms *MutableServer) applyLoop() {
	defer close(ms.done)
	for {
		select {
		case m := <-ms.mutCh:
			if ms.beforeApply != nil {
				ms.beforeApply()
			}
			ms.applyBatch(ms.collectBatch(m))
		case <-ms.quit:
			// closed is already set and Close held the write lock, so no
			// dispatcher is mid-send: everything left is buffered in mutCh.
			for {
				select {
				case m := <-ms.mutCh:
					ms.applyBatch(ms.collectBatch(m))
				default:
					return
				}
			}
		}
	}
}

// collectBatch grows a batch around its first mutation: up to MaxBatch
// requests, waiting at most BatchWindow (or not at all when the window is
// zero — then only already-queued mutations coalesce).
func (ms *MutableServer) collectBatch(first *pendingMut) []*pendingMut {
	batch := []*pendingMut{first}
	if ms.opts.BatchWindow <= 0 {
		for len(batch) < ms.opts.MaxBatch {
			select {
			case m := <-ms.mutCh:
				batch = append(batch, m)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(ms.opts.BatchWindow)
	defer timer.Stop()
	for len(batch) < ms.opts.MaxBatch {
		select {
		case m := <-ms.mutCh:
			batch = append(batch, m)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// applyBatch stages the batch in the log, applies it to a private clone of
// the current epoch, stages the cuts of its first-sight properties, syncs
// once, publishes the next epoch, and replies to every waiter. Mutations see
// their predecessors within the batch (a score update may target a user
// added moments before), so the published state is identical to applying
// the same sequence one at a time.
func (ms *MutableServer) applyBatch(batch []*pendingMut) {
	if ms.failed != nil {
		stopped := mutErr(http.StatusServiceUnavailable, codeUnavailable, "writer stopped by a failed log sync: %v", ms.failed)
		for _, m := range batch {
			m.reply <- stopped
		}
		return
	}
	cur := ms.Snapshot()
	repo := cur.Repo().Clone()
	ix := cur.Index().Clone(repo)
	ms.met.BatchSize.Observe(float64(len(batch)))
	ms.met.QueueDepth.Set(int64(len(ms.mutCh)))
	replies := make([]mutReply, len(batch))
	staged := 0
	for i, m := range batch {
		replies[i] = ms.applyOne(repo, ix, m, &staged)
	}
	if staged > 0 {
		err := ms.stageBuckets(ix)
		if err == nil {
			err = ms.log.Sync()
		}
		if err == nil && ms.afterSync != nil {
			err = ms.afterSync()
		}
		if err != nil {
			// Durability failed: nothing publishes, every waiter learns it,
			// and the writer stops.
			ms.failed = err
			fail := mutErr(http.StatusInternalServerError, codeInternal, "syncing log: %v", err)
			for _, m := range batch {
				m.reply <- fail
			}
			return
		}
	}
	// Fold the batch's change record into the select cache's watermarks
	// before the new epoch is visible: by the time a reader holds the next
	// snapshot, the cache already knows whether anything selection-relevant
	// moved. TakeDelta also bumps the index's ChangeSeq (for non-empty
	// batches), which newSnapshot stamps into the epoch below.
	ms.selCache.applyDelta(ix.TakeDelta())
	ms.publish(newSnapshot(cur.Epoch()+1, repo, ix))
	ms.batches.Add(1)
	ms.mutations.Add(uint64(len(batch)))
	for i, m := range batch {
		m.reply <- replies[i]
	}
}

// applyOne applies a single mutation to the writer's private repo and index,
// staging its log records (counted in *staged). Semantics mirror the
// pre-batching handlers exactly, including their status strings.
func (ms *MutableServer) applyOne(repo *profile.Repository, ix *groups.Index, m *pendingMut, staged *int) mutReply {
	if m.addUser != nil {
		return ms.applyAddUser(repo, ix, m.addUser, staged)
	}
	return ms.applySetScore(repo, ix, m.setScore, staged)
}

func (ms *MutableServer) applyAddUser(repo *profile.Repository, ix *groups.Index, req *addUserRequest, staged *int) mutReply {
	if err := ms.log.AppendAddUser(req.Name); err != nil {
		return mutErr(http.StatusInternalServerError, codeInternal, "%v", err)
	}
	*staged++
	u := repo.AddUser(req.Name)
	// Map iteration order is random; sorting the labels makes property
	// interning — and therefore the log, the catalog and every downstream
	// group ID — deterministic for a given request.
	labels := make([]string, 0, len(req.Properties))
	for label := range req.Properties {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		if err := ms.log.AppendSetScore(u, label, req.Properties[label]); err != nil {
			return mutErr(http.StatusInternalServerError, codeInternal, "%v", err)
		}
		*staged++
		if err := repo.SetScore(u, label, req.Properties[label]); err != nil {
			return mutErr(http.StatusInternalServerError, codeInternal, "%v", err)
		}
	}
	unbucketed, err := ix.IndexUser(u)
	if err != nil {
		return mutErr(http.StatusInternalServerError, codeInternal, "indexing: %v", err)
	}
	// First-sight properties get bucketed now, from their current values;
	// a periodic full rebuild re-derives better cuts as data accumulates.
	for _, pid := range unbucketed {
		if err := ix.BucketProperty(pid, ms.cfg); err != nil {
			return mutErr(http.StatusInternalServerError, codeInternal,
				"bucketing %q: %v", repo.Catalog().Label(pid), err)
		}
	}
	return mutReply{http.StatusOK, map[string]interface{}{
		"id":     int(u),
		"groups": len(ix.UserGroups(u)),
	}}
}

func (ms *MutableServer) applySetScore(repo *profile.Repository, ix *groups.Index, req *setScoreRequest, staged *int) mutReply {
	// Validation runs against the writer's repo, not the published snapshot,
	// so a score for a user added earlier in the same batch is accepted —
	// exactly as if the mutations had been serialized.
	u := profile.UserID(req.User)
	if req.User < 0 || req.User >= repo.NumUsers() {
		return mutErr(http.StatusBadRequest, codeInvalidArgument, "unknown user %d", req.User)
	}
	pid, known := repo.Catalog().Lookup(req.Label)
	if err := ms.log.AppendSetScore(u, req.Label, req.Score); err != nil {
		return mutErr(http.StatusBadRequest, codeInvalidArgument, "%v", err)
	}
	*staged++
	if err := repo.SetScore(u, req.Label, req.Score); err != nil {
		return mutErr(http.StatusInternalServerError, codeInternal, "%v", err)
	}
	status := "updated"
	if !known {
		// A brand-new property: bucket it from its current (single) value;
		// a later rebuild re-derives the partition as data accumulates.
		newPid, _ := repo.Catalog().Lookup(req.Label)
		if err := ix.BucketProperty(newPid, ms.cfg); err != nil {
			status = fmt.Sprintf("recorded; bucketing failed (%v)", err)
		} else {
			status = "updated (new property bucketed)"
		}
	} else if err := ix.UpdateScore(u, pid); err != nil {
		status = fmt.Sprintf("recorded; index not updated (%v)", err)
	}
	return mutReply{http.StatusOK, map[string]string{"status": status}}
}

// mutErr wraps the unified error envelope in a mutReply.
func mutErr(status int, code, format string, args ...interface{}) mutReply {
	return mutReply{status, errBody(status, code, format, args...)}
}

// addUserRequest creates a user with an optional initial profile.
type addUserRequest struct {
	Name       string             `json:"name"`
	Properties map[string]float64 `json:"properties,omitempty"`
}

func (ms *MutableServer) handleAddUser(w http.ResponseWriter, r *http.Request) {
	var req addUserRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "decoding request: %v", err)
		return
	}
	if req.Name == "" {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "name is required")
		return
	}
	// Validate the whole profile before any durable write, so a bad score
	// cannot leave a half-created user.
	for label, score := range req.Properties {
		if score < 0 || score > 1 || score != score {
			writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "score %v for %q outside [0,1]", score, label)
			return
		}
	}
	rep, res := ms.dispatch(&pendingMut{addUser: &req, reply: make(chan mutReply, 1)})
	switch res {
	case dispatchClosing:
		writeError(w, r, http.StatusServiceUnavailable, codeUnavailable, "server closing")
	case dispatchOverload:
		ms.writeOverloaded(w, r)
	default:
		writeJSON(w, r, rep.status, rep.body)
	}
}

// setScoreRequest updates one property score of an existing user.
type setScoreRequest struct {
	User  int     `json:"user"`
	Label string  `json:"label"`
	Score float64 `json:"score"`
}

func (ms *MutableServer) handleSetScore(w http.ResponseWriter, r *http.Request) {
	var req setScoreRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeInvalidArgument, "decoding request: %v", err)
		return
	}
	rep, res := ms.dispatch(&pendingMut{setScore: &req, reply: make(chan mutReply, 1)})
	switch res {
	case dispatchClosing:
		writeError(w, r, http.StatusServiceUnavailable, codeUnavailable, "server closing")
	case dispatchOverload:
		ms.writeOverloaded(w, r)
	default:
		writeJSON(w, r, rep.status, rep.body)
	}
}
