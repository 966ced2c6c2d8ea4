package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"podium/internal/bucketing"
	"podium/internal/codec"
	"podium/internal/groups"
	"podium/internal/load"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/synth"
)

// The restart-determinism scenario: property "q" is bucketed at first sight
// from a single score (degenerate cuts), then later users spread across
// [0,1]. A restart that re-ran KMeans over the accumulated scores would
// derive different cuts — different groups, different selections. The cuts
// commit in the log with the batch that derived them, so a restart
// reproduces the live index.
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
		if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("add user %s: %d: %s", body, rec.Code, rec.Body.String())
		}
	}
}

// selectionFingerprint selects budget 3 and renders the chosen user names
// plus the achieved score — the observable a restart must reproduce.
func selectionFingerprint(t *testing.T, h http.Handler) string {
	t.Helper()
	var sel struct {
		Users []struct {
			Name string `json:"name"`
		} `json:"users"`
		Score float64 `json:"score"`
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/select", strings.NewReader(`{"budget":3}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("select: %d: %s", rec.Code, rec.Body.String())
	}
	decodeBody(t, rec, &sel)
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
	if _, err := os.Stat(reLog + ".buckets"); !os.IsNotExist(err) {
		t.Fatalf("a bucket sidecar was written beside the log: %v", err)
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

// copyLog copies the log at path, and nothing beside it, into a fresh
// directory and returns the copy's path.
func copyLog(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "copy.plog")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// immutableFingerprint starts an immutable server on the log at path as
// podium-server -in does, pinned to the cuts the log committed, and returns
// its selection fingerprint.
func immutableFingerprint(t *testing.T, path string) string {
	t.Helper()
	repo, cuts, err := load.Repository(path)
	if err != nil {
		t.Fatal(err)
	}
	return selectionFingerprint(t, New("immutable", repo, groups.Config{K: 3, FixedBuckets: cuts}, nil))
}

// restartFingerprint starts a server on the log at path and returns its
// selection fingerprint.
func restartFingerprint(t *testing.T, path string) string {
	t.Helper()
	ms, err := NewMutable("restart", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	return selectionFingerprint(t, ms)
}

// scaleSignUps writes a log holding one snapshot of the ScaleLike(300)
// repository and returns its path with twelve sign-ups that score six of
// its existing properties.
func scaleSignUps(t *testing.T) (string, []string) {
	t.Helper()
	repo := synth.Generate(synth.ScaleLike(300)).Repo
	path := filepath.Join(t.TempDir(), "scale.plog")
	l, err := repolog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CompactWith(repo); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	labels := repo.Catalog().Labels()[:6]
	bodies := make([]string, 12)
	for i := range bodies {
		props := map[string]float64{
			labels[i%6]:     float64(i) / 11,
			labels[(i+1)%6]: float64(11-i) / 11,
		}
		body, err := json.Marshal(addUserRequest{Name: fmt.Sprintf("S%d", i), Properties: props})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(body)
	}
	return path, bodies
}

// After every acknowledged batch, a server started on a copy of the log
// alone serves the live server's panel at that point, mutable or immutable:
// the cuts the live index assigns scores with are in the log. On
// restartMutations "q" is first bucketed from one score; on the
// ScaleLike(300) snapshot log the first batch commits every cut the boot
// derived.
func TestMutableRestartFromLogCopy(t *testing.T) {
	check := func(t *testing.T, path string, bodies []string) {
		live, err := NewMutable("live", path, groups.Config{K: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		for i, body := range bodies {
			applyMutations(t, live, []string{body})
			want := selectionFingerprint(t, live)
			if got := restartFingerprint(t, copyLog(t, path)); got != want {
				t.Errorf("restart after batch %d: got %s, want %s", i, got, want)
			}
			if got := immutableFingerprint(t, copyLog(t, path)); got != want {
				t.Errorf("immutable server after batch %d: got %s, want %s", i, got, want)
			}
		}
	}
	t.Run("restartMutations", func(t *testing.T) {
		check(t, filepath.Join(t.TempDir(), "live.plog"), restartMutations)
	})
	t.Run("ScaleLike300", func(t *testing.T) {
		path, bodies := scaleSignUps(t)
		check(t, path, bodies)
	})
}

// holdBatch queues bodies behind a writer held in beforeApply, in order, so
// that the writer applies them as one batch, and returns the replies.
func holdBatch(t *testing.T, ms *MutableServer, gate chan chan struct{}, bodies []string) []int {
	t.Helper()
	release := make(chan struct{})
	gate <- release
	codes := make([]int, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = doMutable(t, ms, http.MethodPost, "/api/v1/users", body, nil).Code
		}()
		// The first mutation parks the writer; each later one must be queued
		// before the next is sent, so the batch keeps this order.
		for (i == 0 && len(gate) > 0) || len(ms.mutCh) < i {
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	return codes
}

// A batch that buckets several first-sight scores commits their cuts with
// it: a restart from the log copied after the batch serves its panel.
func TestMutableRestartHeldBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "held.plog")
	ms, err := NewMutable("live", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	gate := make(chan chan struct{}, 1)
	ms.beforeApply = func() {
		select {
		case release := <-gate:
			<-release
		default:
		}
	}
	applyMutations(t, ms, []string{
		`{"name":"A0","properties":{"p":0.9}}`,
		`{"name":"A1","properties":{"p":0.1}}`,
		`{"name":"A2","properties":{"p":0.5}}`,
	})
	batch := []string{`{"name":"B0","properties":{"p":0.7}}`}
	for i := 1; i <= 6; i++ {
		batch = append(batch, fmt.Sprintf(`{"name":"B%d","properties":{"q":%g}}`, i, float64(i*i)/40))
	}
	for i, code := range holdBatch(t, ms, gate, batch) {
		if code != http.StatusOK {
			t.Fatalf("held mutation %d answered %d", i, code)
		}
	}
	if batches, _ := ms.BatchStats(); batches != 4 {
		t.Fatalf("%d batches, want the held mutations in one", batches)
	}
	want := selectionFingerprint(t, ms)
	if got := restartFingerprint(t, copyLog(t, path)); got != want {
		t.Fatalf("restart after the held batch: got %s, want %s", got, want)
	}
}

// After a batch's Sync fails, the writer acknowledges nothing more: the
// failed batch answers 500, every later mutation 503 naming the log error,
// reads keep serving the last published epoch, and a restart replays what
// reached the file.
func TestMutableFailedSyncStopsWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failed.plog")
	ms, err := NewMutable("live", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	injected := errors.New("injected fsync failure")
	armed := make(chan struct{}, 1)
	ms.afterSync = func() error {
		select {
		case <-armed:
			return injected
		default:
			return nil
		}
	}
	applyMutations(t, ms, restartMutations[:3])
	before := selectionFingerprint(t, ms)
	armed <- struct{}{}
	if rec := doMutable(t, ms, http.MethodPost, "/api/v1/users", `{"name":"A","properties":{"q":0.2}}`, nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("mutation whose sync failed answered %d: %s", rec.Code, rec.Body.String())
	}
	for _, m := range []struct{ path, body string }{
		{"/api/v1/users", `{"name":"B"}`},
		{"/api/v1/scores", `{"user":0,"label":"q","score":0.9}`},
	} {
		rec := doMutable(t, ms, http.MethodPost, m.path, m.body, nil)
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), CodeUnavailable) || !strings.Contains(rec.Body.String(), injected.Error()) {
			t.Fatalf("mutation after the failed sync answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	if got := selectionFingerprint(t, ms); got != before {
		t.Fatalf("reads after the failed sync serve %s, want the last published %s", got, before)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := NewMutable("restart", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	repo := back.Snapshot().Repo()
	if n := repo.NumUsers(); n != 4 || repo.UserName(3) != "A" {
		t.Fatalf("restart replayed %d users, want U0-U2 and the failed batch's A", n)
	}
}

// writeLegacyLog writes bodies to a new log at path as mutation records
// only, as a server did before the log held bucket cuts.
func writeLegacyLog(t *testing.T, path string, bodies []string) {
	t.Helper()
	l, err := repolog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for u, body := range bodies {
		var req addUserRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendAddUser(req.Name); err != nil {
			t.Fatal(err)
		}
		labels := make([]string, 0, len(req.Properties))
		for label := range req.Properties {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			if err := l.AppendSetScore(profile.UserID(u), label, req.Properties[label]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeSidecar writes cuts to the sidecar file beside the log at logPath.
func writeSidecar(t *testing.T, logPath string, cuts map[profile.PropertyID][]bucketing.Bucket) {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.WriteBuckets(&buf, cuts); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath+".buckets", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A log from before boundaries records, with the sidecar its server wrote,
// restarts to the panel that server served. The first batch commits the
// sidecar's cuts into the log, and after it the sidecar is not needed.
func TestMutableRestartMigratesSidecar(t *testing.T) {
	mid := 5
	live, err := NewMutable("live", filepath.Join(t.TempDir(), "live.plog"), groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	applyMutations(t, live, restartMutations[:mid])
	wantMid := selectionFingerprint(t, live)
	cuts := live.Snapshot().Index().BucketBoundaries()
	applyMutations(t, live, restartMutations[mid:mid+1])
	wantNext := selectionFingerprint(t, live)

	path := filepath.Join(t.TempDir(), "legacy.plog")
	writeLegacyLog(t, path, restartMutations[:mid])
	if got := restartFingerprint(t, copyLog(t, path)); got == wantMid {
		t.Fatalf("premise: a restart that derives its own cuts already serves %s", got)
	}
	writeSidecar(t, path, cuts)
	ms, err := NewMutable("migrated", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := selectionFingerprint(t, ms); got != wantMid {
		t.Fatalf("restart from the legacy log and its sidecar: got %s, want %s", got, wantMid)
	}
	applyMutations(t, ms, restartMutations[mid:mid+1])
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + ".buckets"); err != nil {
		t.Fatal(err)
	}
	if got := restartFingerprint(t, path); got != wantNext {
		t.Fatalf("restart without the sidecar after one batch: got %s, want %s", got, wantNext)
	}
}

// A sidecar that does not decode fails start-up, naming the file, and the
// server starts once the file is removed.
func TestMutableRestartRejectsCorruptSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.plog")
	writeLegacyLog(t, path, restartMutations)
	writeSidecar(t, path, map[profile.PropertyID][]bucketing.Bucket{0: {{Lo: 0, Hi: 1, ClosedHi: true}}})
	data, err := os.ReadFile(path + ".buckets")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path+".buckets", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ms, err := NewMutable("live", path, groups.Config{K: 3}, nil); err == nil {
		ms.Close()
		t.Fatal("a corrupt sidecar did not fail start-up")
	} else if !strings.Contains(err.Error(), path+".buckets") {
		t.Fatalf("start-up error %q does not name the sidecar", err)
	}
	if err := os.Remove(path + ".buckets"); err != nil {
		t.Fatal(err)
	}
	restartFingerprint(t, path)
}
