package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// checkPin compares the SHA-256 of data with the hash pinned under name in
// testdata/pinned.sha256 (lines of "hex  name"). The pins are never
// regenerated: a mismatch means the on-disk format changed.
func checkPin(t *testing.T, name string, data []byte) {
	t.Helper()
	pins, err := os.ReadFile(filepath.Join("testdata", "pinned.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	for _, line := range strings.Split(string(pins), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			if f[0] != got {
				t.Fatalf("%s: sha256 %s, pinned %s", name, got, f[0])
			}
			return
		}
	}
	t.Fatalf("%s: no pin (sha256 %s)", name, got)
}

// TestPinnedWALBytes pins the journal of a fixed-seed campaign run to
// completion. The pinned file must decode to events that re-journal to the
// same bytes, and must replay to the run's transcript and panel.
func TestPinnedWALBytes(t *testing.T) {
	cfg := Config{Budget: 8, Seed: 77, Behavior: Behavior{NonResponse: 0.35, Decline: 0.05}}
	dir := t.TempDir()
	wantTr, wantPanel, data := runJournaled(t, cfg, filepath.Join(dir, "run.wal"))
	checkPin(t, "wal", data)

	copyPath := filepath.Join(dir, "copy.wal")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, events, err := OpenWAL(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Recovered != 0 || len(events) == 0 {
		t.Fatalf("pinned journal: %d events, recovered %d", len(events), w.Recovered)
	}
	rePath := filepath.Join(dir, "rejournal.wal")
	re, _, err := OpenWAL(rePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		switch e := ev.(type) {
		case evConfig:
			err = re.AppendConfig(e.raw)
		case evRound:
			err = re.AppendRound(e.round, e.selected)
		case evWave:
			err = re.AppendWave(e.round, e.attempt, e.backoffMs, e.results)
		case evRoundEnd:
			err = re.AppendRoundEnd(e.round, e.dead, e.coverage)
		case evDone:
			err = re.AppendDone(e.status, e.panel)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(rePath); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("decoded events re-journal to different bytes (err %v)", err)
	}

	resumed, err := NewWithWAL(testInstance(5, 180, 10, cfg.Budget), nil, cfg, copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Transcript(), wantTr) || !reflect.DeepEqual(resumed.Status().Accepted, wantPanel) {
		t.Fatal("pinned journal replays to a different campaign")
	}
}
