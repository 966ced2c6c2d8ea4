// Package repolog persists a profile repository as a log-structured store:
// an append-only file of checksummed mutation records (add-user, set-score)
// with periodic snapshot compaction. This is the durability substrate behind
// Section 9's operational story — Podium "applies to a given user repository
// as-is and may be easily executed multiple times, e.g., to incorporate data
// updates": the platform appends profile mutations as they happen (Open),
// and every selection run reads the log (Read) and replays it into an
// in-memory repository without writing to it.
//
// The log is a durable.Journal with magic "PLOG", version 1 and records of
// at most 1 GiB. Record kinds: snapshot (1, a full repository in the
// internal/codec binary format), add-user (2), set-score (3) and boundaries
// (4, bucket cuts β(p) in the codec.WriteBuckets format). Boundaries records
// make the log the one durable state a mutable server restarts from: the
// cuts its live index assigned scores with commit in the batch whose
// mutations derived them, and a restart, or an immutable server that reads
// the log, pins the rebuilt index to them. A torn or corrupted tail — the
// signature of a crash mid-append — is truncated and reported by Open and
// left in place by Read; everything before it is recovered.
package repolog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"

	"podium/internal/bucketing"
	"podium/internal/codec"
	"podium/internal/durable"
	"podium/internal/profile"
)

const (
	logMagic   = "PLOG"
	logVersion = 1

	recSnapshot byte = 1
	recAddUser  byte = 2
	recSetScore byte = 3
	recBuckets  byte = 4

	// maxRecordLen bounds a single record; snapshots of huge repositories
	// dominate, so this is generous.
	maxRecordLen = 1 << 30
)

// Log is an open repository log. It is not safe for concurrent use; callers
// serialize access (the HTTP server builds its immutable index from a
// snapshot instead of holding the log open).
type Log struct {
	path string
	j    *durable.Journal
	repo *profile.Repository
	// buckets folds every boundaries record, replayed or staged.
	buckets map[profile.PropertyID][]bucketing.Bucket
	// Recovered reports how many trailing bytes were discarded as a torn
	// tail during Open.
	Recovered int64
}

// Open opens (or creates) the log at path and replays it into memory. A new
// log's header is fsynced, with its directory, before Open returns.
func Open(path string) (*Log, error) {
	l := &Log{path: path, repo: profile.NewRepository(), buckets: map[profile.PropertyID][]bucketing.Bucket{}}
	j, err := durable.Open(path, logMagic, logVersion, maxRecordLen, l.apply)
	if err != nil {
		return nil, err
	}
	l.j, l.Recovered = j, j.Recovered
	return l, nil
}

// Read replays the log at path into a repository and the bucket cuts its
// boundaries records hold, without writing to the file: unlike Open it never
// creates or truncates the log and never syncs it, so a selection run can
// read a log that a server is appending to. A torn tail, or a batch still
// being appended, is left out.
func Read(path string) (*profile.Repository, map[profile.PropertyID][]bucketing.Bucket, error) {
	l := &Log{path: path, repo: profile.NewRepository(), buckets: map[profile.PropertyID][]bucketing.Bucket{}}
	if err := durable.Read(path, logMagic, logVersion, maxRecordLen, l.apply); err != nil {
		return nil, nil, err
	}
	return l.repo, l.buckets, nil
}

// apply folds one replayed record into the in-memory repository.
func (l *Log) apply(kind byte, payload []byte) error {
	p := bytes.NewReader(payload)
	switch kind {
	case recSnapshot:
		repo, err := codec.ReadRepository(p)
		if err != nil {
			return fmt.Errorf("repolog: snapshot: %w", err)
		}
		l.repo = repo
		return nil
	case recAddUser:
		name, err := decodeString(p)
		if err != nil {
			return fmt.Errorf("repolog: add-user: %w", err)
		}
		l.repo.AddUser(name)
		return nil
	case recSetScore:
		u, err := binary.ReadUvarint(p)
		if err != nil {
			return fmt.Errorf("repolog: set-score user: %w", err)
		}
		label, err := decodeString(p)
		if err != nil {
			return fmt.Errorf("repolog: set-score label: %w", err)
		}
		var bits [8]byte
		if _, err := io.ReadFull(p, bits[:]); err != nil {
			return fmt.Errorf("repolog: set-score value: %w", err)
		}
		score := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		if err := l.repo.SetScore(profile.UserID(u), label, score); err != nil {
			return fmt.Errorf("repolog: %w", err)
		}
		return nil
	case recBuckets:
		cuts, err := codec.ReadBuckets(payload)
		if err != nil {
			return fmt.Errorf("repolog: boundaries: %w", err)
		}
		maps.Copy(l.buckets, cuts)
		return nil
	}
	return fmt.Errorf("repolog: unknown record kind %d", kind)
}

// Repository returns the in-memory replayed repository. It is owned by the
// log; callers mutate it only through AddUser/SetScore.
func (l *Log) Repository() *profile.Repository { return l.repo }

// Buckets returns the bucket cuts β(p) the log holds: every boundaries
// record, replayed or staged, folded in log order, so a later record's cuts
// for a property replace an earlier one's. The map is the log's own and
// grows as AppendBuckets stages records; a caller that keeps it copies it.
func (l *Log) Buckets() map[profile.PropertyID][]bucketing.Bucket { return l.buckets }

// AddUser stages an add-user record, applies it to the replayed repository
// and returns the user's ID. The record becomes durable at the next Sync or
// Close.
func (l *Log) AddUser(name string) (profile.UserID, error) {
	var payload bytes.Buffer
	encodeString(&payload, name)
	if err := l.j.Append(recAddUser, payload.Bytes()); err != nil {
		return 0, err
	}
	return l.repo.AddUser(name), nil
}

// SetScore stages a score mutation and applies it to the replayed
// repository; it becomes durable at the next Sync or Close. Validation
// happens before the write so an invalid score never reaches the log.
func (l *Log) SetScore(u profile.UserID, label string, score float64) error {
	if math.IsNaN(score) || score < 0 || score > 1 {
		return fmt.Errorf("repolog: score %v for %q outside [0,1]", score, label)
	}
	if int(u) < 0 || int(u) >= l.repo.NumUsers() {
		return fmt.Errorf("repolog: unknown user %d", u)
	}
	if err := l.j.Append(recSetScore, encodeSetScore(u, label, score)); err != nil {
		return err
	}
	return l.repo.SetScore(u, label, score)
}

// AppendAddUser stages an add-user record in the write buffer without
// applying it to the replayed repository — the batched path for callers that
// maintain their own authoritative repository view (the snapshot server's
// single-writer apply loop). The record becomes durable at the next Sync;
// staging a whole mutation batch and syncing once amortizes the fsync.
func (l *Log) AppendAddUser(name string) error {
	var payload bytes.Buffer
	encodeString(&payload, name)
	return l.j.Append(recAddUser, payload.Bytes())
}

// AppendSetScore stages a set-score record without applying it to the
// replayed repository. The score is validated here so an invalid value never
// reaches the log; the caller guarantees u is a valid user of its own
// repository (replay re-validates against the reconstructed population).
func (l *Log) AppendSetScore(u profile.UserID, label string, score float64) error {
	if math.IsNaN(score) || score < 0 || score > 1 {
		return fmt.Errorf("repolog: score %v for %q outside [0,1]", score, label)
	}
	if int(u) < 0 {
		return fmt.Errorf("repolog: negative user %d", u)
	}
	return l.j.Append(recSetScore, encodeSetScore(u, label, score))
}

// AppendBuckets stages one boundaries record holding cuts and folds them
// into Buckets. Like the mutation records it becomes durable at the next
// Sync, so a caller stages it in the batch whose mutations derived the cuts.
func (l *Log) AppendBuckets(cuts map[profile.PropertyID][]bucketing.Bucket) error {
	if err := l.j.Append(recBuckets, encodeBuckets(cuts)); err != nil {
		return err
	}
	maps.Copy(l.buckets, cuts)
	return nil
}

// encodeBuckets builds the boundaries record payload; writing to a
// bytes.Buffer cannot fail.
func encodeBuckets(cuts map[profile.PropertyID][]bucketing.Bucket) []byte {
	var payload bytes.Buffer
	codec.WriteBuckets(&payload, cuts)
	return payload.Bytes()
}

// encodeSetScore builds the set-score record payload.
func encodeSetScore(u profile.UserID, label string, score float64) []byte {
	var payload bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	payload.Write(tmp[:binary.PutUvarint(tmp[:], uint64(u))])
	encodeString(&payload, label)
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(score))
	payload.Write(bits[:])
	return payload.Bytes()
}

// Sync flushes staged records and fsyncs the file.
func (l *Log) Sync() error { return l.j.Sync() }

// CompactWith rewrites the log, atomically, as a snapshot of repo — the
// caller's authoritative current state — followed by one boundaries record
// holding Buckets when the log holds any cuts. Appends continue on the new
// file, and the given repository becomes the log's replayed repository. A
// log written through AddUser/SetScore compacts with CompactWith(Repository()).
func (l *Log) CompactWith(repo *profile.Repository) error {
	l.repo = repo
	var snap bytes.Buffer
	if err := codec.WriteRepository(&snap, repo); err != nil {
		return fmt.Errorf("repolog: snapshot: %w", err)
	}
	recs := []durable.Record{{Kind: recSnapshot, Payload: snap.Bytes()}}
	if len(l.buckets) > 0 {
		recs = append(recs, durable.Record{Kind: recBuckets, Payload: encodeBuckets(l.buckets)})
	}
	return l.j.Replace(recs...)
}

// Close syncs and closes the log.
func (l *Log) Close() error { return l.j.Close() }

func encodeString(buf *bytes.Buffer, s string) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
	buf.WriteString(s)
}

func decodeString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
