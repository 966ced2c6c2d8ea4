package server

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"podium/internal/codec"
	"podium/internal/groups"
)

// The restart-determinism scenario: property "q" is bucketed at first sight
// from a single score (degenerate cuts), then later users spread across
// [0,1]. Without the persisted sidecar a restart re-runs KMeans over the
// accumulated scores and derives different cuts — different groups,
// different selections. With it, a restart reproduces the live index.
var restartMutations = []string{
	`{"name":"U0","properties":{"q":0.5}}`,
	`{"name":"U1","properties":{"q":0.05}}`,
	`{"name":"U2","properties":{"q":0.12}}`,
	`{"name":"U3","properties":{"q":0.33}}`,
	`{"name":"U4","properties":{"q":0.41}}`,
	`{"name":"U5","properties":{"q":0.58}}`,
	`{"name":"U6","properties":{"q":0.67}}`,
	`{"name":"U7","properties":{"q":0.83}}`,
	`{"name":"U8","properties":{"q":0.95}}`,
}

func applyMutations(t *testing.T, ms *MutableServer, bodies []string) {
	t.Helper()
	for _, body := range bodies {
		if rec := doMutable(t, ms, http.MethodPost, "/api/users", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("add user %s: %d: %s", body, rec.Code, rec.Body.String())
		}
	}
}

// selectionFingerprint selects budget 3 and renders the chosen user names
// plus the achieved score — the observable a restart must reproduce.
func selectionFingerprint(t *testing.T, ms *MutableServer) string {
	t.Helper()
	var sel struct {
		Users []struct {
			Name string `json:"name"`
		} `json:"users"`
		Score float64 `json:"score"`
	}
	rec := doMutable(t, ms, http.MethodPost, "/api/select", `{"budget":3}`, &sel)
	if rec.Code != http.StatusOK {
		t.Fatalf("select: %d: %s", rec.Code, rec.Body.String())
	}
	names := make([]string, len(sel.Users))
	for i, u := range sel.Users {
		names[i] = u.Name
	}
	return fmt.Sprintf("%s score=%.6f", strings.Join(names, ","), sel.Score)
}

func TestMutableRestartBucketDeterminism(t *testing.T) {
	cfg := groups.Config{K: 3}
	mid := 5 // restart point within the mutation stream

	// Reference: a server that lives through the whole stream.
	liveLog := filepath.Join(t.TempDir(), "live.plog")
	live, err := NewMutable("live", liveLog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyMutations(t, live, restartMutations)
	want := selectionFingerprint(t, live)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// Same stream, but the server restarts mid-log.
	reLog := filepath.Join(t.TempDir(), "restart.plog")
	first, err := NewMutable("live", reLog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyMutations(t, first, restartMutations[:mid])
	midSel := selectionFingerprint(t, first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(reLog + ".buckets"); err != nil {
		t.Fatalf("bucket sidecar missing after close: %v", err)
	}

	second, err := NewMutable("live", reLog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := selectionFingerprint(t, second); got != midSel {
		t.Fatalf("restart changed the mid-log selection:\n got %s\nwant %s", got, midSel)
	}
	applyMutations(t, second, restartMutations[mid:])
	if got := selectionFingerprint(t, second); got != want {
		t.Fatalf("restarted server diverged from the never-restarted one:\n got %s\nwant %s", got, want)
	}
}

// TestMutableRestartSidecarDisabled documents the pre-sidecar behavior the
// fix exists for: with persistence off, a restart re-derives cuts from the
// accumulated distribution, which need not match the live index's
// first-sight cuts. It only asserts the opt-out works (server opens and
// serves); equality is deliberately not required.
func TestMutableRestartSidecarDisabled(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "nosidecar.plog")
	opts := MutableOptions{BucketImage: "-"}
	ms, err := NewMutableOpts("live", logPath, groups.Config{K: 3}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyMutations(t, ms, restartMutations[:5])
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logPath + ".buckets"); !os.IsNotExist(err) {
		t.Fatalf("sidecar written despite opt-out: %v", err)
	}
	back, err := NewMutableOpts("live", logPath, groups.Config{K: 3}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	selectionFingerprint(t, back)
}

// TestMutableRestartSurvivesCorruptSidecar: a sidecar that fails its CRC32C
// must not fail startup — the log is intact, so the server warns, derives
// cuts from the replayed distribution, and rewrites a fresh sidecar.
func TestMutableRestartSurvivesCorruptSidecar(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "corrupt.plog")
	ms, err := NewMutable("live", logPath, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyMutations(t, ms, restartMutations)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	sidecar := logPath + ".buckets"
	data, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatalf("sidecar missing after close: %v", err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the payload tail
	if err := os.WriteFile(sidecar, data, 0o644); err != nil {
		t.Fatal(err)
	}

	back, err := NewMutable("live", logPath, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatalf("corrupt sidecar failed startup instead of falling back: %v", err)
	}
	defer back.Close()
	selectionFingerprint(t, back) // serves selections from replayed cuts

	// The damaged sidecar was replaced with a verifiable one.
	fresh, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fresh, data) {
		t.Fatal("damaged sidecar was not rewritten at startup")
	}
	if _, err := codec.ReadBuckets(fresh); err != nil {
		t.Fatalf("rewritten sidecar does not verify: %v", err)
	}
}

// captureLog runs fn with the standard logger writing to a buffer and
// returns what it logged.
func captureLog(fn func()) string {
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	fn()
	log.SetOutput(prev)
	return buf.String()
}

// A server that truncates a torn tail from its log at start says so, with
// the log's path and the bytes dropped; a clean log says nothing.
func TestMutableLogsRecoveredTail(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "torn.plog")
	ms, err := NewMutable("live", logPath, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyMutations(t, ms, restartMutations)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{2, 5, 'U'}) // an add-user record cut mid-payload
	f.Close()

	for _, want := range []string{fmt.Sprintf("%s: truncated a torn tail of 3 bytes", logPath), ""} {
		var back *MutableServer
		out := captureLog(func() { back, err = NewMutable("live", logPath, groups.Config{K: 3}, nil) })
		if err != nil {
			t.Fatal(err)
		}
		selectionFingerprint(t, back)
		back.Close()
		if want == "" && strings.Contains(out, "torn tail") {
			t.Fatalf("clean log reported a torn tail: %q", out)
		}
		if !strings.Contains(out, want) {
			t.Fatalf("start-up log %q does not contain %q", out, want)
		}
	}
}
