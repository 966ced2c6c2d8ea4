package repolog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/codec"
	"podium/internal/profile"
	"podium/internal/synth"
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

// assertReplays opens a copy of data as a log and requires it to replay,
// with nothing recovered, to exactly want's binary encoding and cuts.
func assertReplays(t *testing.T, data []byte, want *profile.Repository, cuts map[profile.PropertyID][]bucketing.Bucket) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "copy.plog")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Recovered != 0 {
		t.Fatalf("pinned log recovered %d bytes", l.Recovered)
	}
	var got, exp bytes.Buffer
	if err := codec.WriteRepository(&got, l.Repository()); err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteRepository(&exp, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatal("pinned log replays to a different repository")
	}
	if !sameCuts(l.Buckets(), cuts) {
		t.Fatalf("pinned log replays to cuts %v, want %v", l.Buckets(), cuts)
	}
}

// TestPinnedLogBytes pins what the log writes from fixed input — a synced
// log of every mutation record, then the same log compacted to a snapshot
// with one more record staged — and requires each file to replay to the
// repository that wrote it.
func TestPinnedLogBytes(t *testing.T) {
	l, path := openTemp(t)
	want := profile.NewRepository()
	alice, err := l.AddUser("Alice")
	if err != nil {
		t.Fatal(err)
	}
	want.AddUser("Alice")
	for _, m := range []struct {
		label string
		score float64
	}{{"livesIn Tokyo", 1}, {"avgRating Mexican", 0.95}} {
		if err := l.SetScore(alice, m.label, m.score); err != nil {
			t.Fatal(err)
		}
		want.MustSetScore(alice, m.label, m.score)
	}
	if err := l.AppendAddUser("Bob"); err != nil {
		t.Fatal(err)
	}
	bob := want.AddUser("Bob")
	for _, m := range []struct {
		u     profile.UserID
		label string
		score float64
	}{{bob, "avgRating Mexican", 0.3}, {alice, "livesIn Tokyo", 0.5}, {bob, "visited Lima", 0}} {
		if err := l.AppendSetScore(m.u, m.label, m.score); err != nil {
			t.Fatal(err)
		}
		want.MustSetScore(m.u, m.label, m.score)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	synced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "log-synced", synced)
	assertReplays(t, synced, want, nil)

	scale := synth.Generate(synth.ScaleLike(200)).Repo
	if err := l.CompactWith(scale); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAddUser("Carol"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "log-compacted", compacted)
	scale.AddUser("Carol")
	assertReplays(t, compacted, scale, nil)
}

// TestPinnedBucketsLogBytes pins a log holding boundaries records — a synced
// batch with the cuts of its properties, then a batch whose record adds one
// property and replaces another's cuts — and the same log compacted to a
// snapshot and one boundaries record, and requires each file to replay to
// the repository and the cuts that wrote it.
func TestPinnedBucketsLogBytes(t *testing.T) {
	l, path := openTemp(t)
	want := profile.NewRepository()
	cuts := map[profile.PropertyID][]bucketing.Bucket{}
	type score struct {
		label string
		value float64
	}
	batches := []struct {
		user   string
		scores []score
		cuts   map[profile.PropertyID][]bucketing.Bucket
	}{
		{"Alice", []score{{"livesIn Tokyo", 1}, {"avgRating Mexican", 0.95}}, sampleCuts(0.95)},
		{"Bob", []score{{"avgRating Mexican", 0.3}, {"visited Lima", 0}}, map[profile.PropertyID][]bucketing.Bucket{
			1: {{Lo: 0.3, Hi: 0.6}, {Lo: 0.6, Hi: 0.95, ClosedHi: true}},
			2: {{Lo: 0, Hi: 0, ClosedHi: true}},
		}},
	}
	for _, b := range batches {
		u := want.AddUser(b.user)
		if err := l.AppendAddUser(b.user); err != nil {
			t.Fatal(err)
		}
		for _, s := range b.scores {
			want.MustSetScore(u, s.label, s.value)
			if err := l.AppendSetScore(u, s.label, s.value); err != nil {
				t.Fatal(err)
			}
		}
		maps.Copy(cuts, b.cuts)
		if err := l.AppendBuckets(b.cuts); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	synced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "log-buckets", synced)
	assertReplays(t, synced, want, cuts)

	if err := l.CompactWith(want.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "log-buckets-compacted", compacted)
	assertReplays(t, compacted, want, cuts)
}
