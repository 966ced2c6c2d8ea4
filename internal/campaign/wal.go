package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"podium/internal/durable"
	"podium/internal/profile"
)

// The campaign WAL is a durable.Journal, like the repository log, so a killed
// orchestrator recovers the valid prefix and resumes mid-round. Unlike the
// repository log (whose records rebuild a repository), these records are the
// campaign's round transcript itself: replaying them reconstructs the
// orchestrator state bit for bit, and the deterministic simulation guarantees
// the continuation appends the same bytes an uninterrupted run would have.
const (
	walMagic   = "PCMP"
	walVersion = 1

	recConfig   byte = 1 // JSON of the campaign Config, for resume validation
	recRound    byte = 2 // round number + newly selected panel (pick order)
	recWave     byte = 3 // one solicitation wave's outcomes, canonical user order
	recRoundEnd byte = 4 // unresponsive users declared dead + coverage score
	recDone     byte = 5 // terminal status + final panel

	// maxWALRecordLen bounds one record; panels are at most a few thousand
	// users, so this is generous.
	maxWALRecordLen = 1 << 26
)

// Terminal status codes carried by recDone.
const (
	doneExhausted byte = 0 // candidates or rounds ran out before the budget filled
	doneConverged byte = 1 // the panel reached the budget
	doneCancelled byte = 2
)

// WAL journals one campaign. It is used only by the campaign's orchestrator
// goroutine, never concurrently.
type WAL struct {
	j *durable.Journal
	// Recovered reports how many trailing bytes were discarded as a torn
	// tail during Open.
	Recovered int64

	// failAfter, when positive, makes the append path fail once that many
	// further records have been written — the deterministic "kill" the
	// resume tests inject. Zero disables the hook.
	failAfter int
}

// errKilled is the injected append failure of the resume tests.
var errKilled = fmt.Errorf("campaign: wal append killed by test hook")

// walEvent is one decoded record, produced by Open's replay.
type walEvent interface{ walEvent() }

type evConfig struct{ raw []byte }
type evRound struct {
	round    int
	selected []profile.UserID
}
type evWave struct {
	round, attempt int
	backoffMs      float64
	results        []SolicitResult
}
type evRoundEnd struct {
	round    int
	dead     []profile.UserID
	coverage float64
}
type evDone struct {
	status byte
	panel  []profile.UserID
}

func (evConfig) walEvent()   {}
func (evRound) walEvent()    {}
func (evWave) walEvent()     {}
func (evRoundEnd) walEvent() {}
func (evDone) walEvent()     {}

// OpenWAL opens (or creates) the journal at path, replays every valid record
// and truncates any torn tail, returning the decoded events in order. A
// freshly created journal is fsynced along with its containing directory
// before OpenWAL returns: without the directory sync, a crash right after
// creation can lose the file itself (the directory entry is not durable),
// leaving a resume with no journal where record appends had already been
// acknowledged.
func OpenWAL(path string) (*WAL, []walEvent, error) {
	var events []walEvent
	j, err := durable.Open(path, walMagic, walVersion, maxWALRecordLen, func(kind byte, payload []byte) error {
		ev, err := decodeWALEvent(kind, payload)
		if err == nil {
			events = append(events, ev)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return &WAL{j: j, Recovered: j.Recovered}, events, nil
}

func decodeWALEvent(kind byte, payload []byte) (walEvent, error) {
	p := bytes.NewReader(payload)
	switch kind {
	case recConfig:
		return evConfig{raw: payload}, nil
	case recRound:
		round, err := readUvarint(p, "round")
		if err != nil {
			return nil, err
		}
		sel, err := readUsers(p)
		if err != nil {
			return nil, err
		}
		return evRound{round: int(round), selected: sel}, nil
	case recWave:
		round, err := readUvarint(p, "round")
		if err != nil {
			return nil, err
		}
		attempt, err := readUvarint(p, "attempt")
		if err != nil {
			return nil, err
		}
		backoff, err := readFloat(p)
		if err != nil {
			return nil, err
		}
		count, err := readUvarint(p, "count")
		if err != nil {
			return nil, err
		}
		if count > maxWALRecordLen/8 {
			return nil, fmt.Errorf("campaign: wave of %d results exceeds limit", count)
		}
		results := make([]SolicitResult, 0, count)
		for i := uint64(0); i < count; i++ {
			u, err := readUvarint(p, "user")
			if err != nil {
				return nil, err
			}
			out, err := p.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("campaign: wave outcome: %w", err)
			}
			lat, err := readFloat(p)
			if err != nil {
				return nil, err
			}
			results = append(results, SolicitResult{
				User: profile.UserID(u), Outcome: Outcome(out), LatencyMs: lat,
			})
		}
		return evWave{round: int(round), attempt: int(attempt), backoffMs: backoff, results: results}, nil
	case recRoundEnd:
		round, err := readUvarint(p, "round")
		if err != nil {
			return nil, err
		}
		dead, err := readUsers(p)
		if err != nil {
			return nil, err
		}
		cov, err := readFloat(p)
		if err != nil {
			return nil, err
		}
		return evRoundEnd{round: int(round), dead: dead, coverage: cov}, nil
	case recDone:
		status, err := p.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("campaign: done status: %w", err)
		}
		panel, err := readUsers(p)
		if err != nil {
			return nil, err
		}
		return evDone{status: status, panel: panel}, nil
	}
	return nil, fmt.Errorf("campaign: unknown record kind %d", kind)
}

func readUvarint(p *bytes.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(p)
	if err != nil {
		return 0, fmt.Errorf("campaign: %s: %w", what, err)
	}
	return v, nil
}

func readFloat(p *bytes.Reader) (float64, error) {
	var bits [8]byte
	if _, err := io.ReadFull(p, bits[:]); err != nil {
		return 0, fmt.Errorf("campaign: float: %w", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(bits[:])), nil
}

func readUsers(p *bytes.Reader) ([]profile.UserID, error) {
	count, err := readUvarint(p, "user count")
	if err != nil {
		return nil, err
	}
	if count > maxWALRecordLen/2 {
		return nil, fmt.Errorf("campaign: user list of %d exceeds limit", count)
	}
	out := make([]profile.UserID, 0, count)
	for i := uint64(0); i < count; i++ {
		u, err := readUvarint(p, "user")
		if err != nil {
			return nil, err
		}
		out = append(out, profile.UserID(u))
	}
	return out, nil
}

// --- encoding ---

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putFloat(buf *bytes.Buffer, v float64) {
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
	buf.Write(bits[:])
}

func putUsers(buf *bytes.Buffer, users []profile.UserID) {
	putUvarint(buf, uint64(len(users)))
	for _, u := range users {
		putUvarint(buf, uint64(u))
	}
}

// AppendConfig journals the campaign configuration (its canonical JSON).
func (w *WAL) AppendConfig(raw []byte) error { return w.append(recConfig, raw) }

// AppendRound journals a round's newly selected panel, in pick order.
func (w *WAL) AppendRound(round int, selected []profile.UserID) error {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(round))
	putUsers(&buf, selected)
	return w.append(recRound, buf.Bytes())
}

// AppendWave journals one solicitation wave, results in canonical user order.
func (w *WAL) AppendWave(round, attempt int, backoffMs float64, results []SolicitResult) error {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(round))
	putUvarint(&buf, uint64(attempt))
	putFloat(&buf, backoffMs)
	putUvarint(&buf, uint64(len(results)))
	for _, res := range results {
		putUvarint(&buf, uint64(res.User))
		buf.WriteByte(byte(res.Outcome))
		putFloat(&buf, res.LatencyMs)
	}
	return w.append(recWave, buf.Bytes())
}

// AppendRoundEnd journals the users declared unresponsive this round and the
// accepted panel's coverage score after the round.
func (w *WAL) AppendRoundEnd(round int, dead []profile.UserID, coverage float64) error {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(round))
	putUsers(&buf, dead)
	putFloat(&buf, coverage)
	return w.append(recRoundEnd, buf.Bytes())
}

// AppendDone journals the campaign's terminal status and final panel.
func (w *WAL) AppendDone(status byte, panel []profile.UserID) error {
	var buf bytes.Buffer
	buf.WriteByte(status)
	putUsers(&buf, panel)
	return w.append(recDone, buf.Bytes())
}

// append journals and syncs one record. Each record is durable before the
// orchestrator proceeds — the wave is the campaign's durability unit.
func (w *WAL) append(kind byte, payload []byte) error {
	if w.failAfter != 0 {
		w.failAfter--
		if w.failAfter == 0 {
			return errKilled
		}
	}
	if err := w.j.Append(kind, payload); err != nil {
		return err
	}
	return w.j.Sync()
}

// Close syncs and closes the journal.
func (w *WAL) Close() error { return w.j.Close() }
