package repolog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/codec"
	"podium/internal/profile"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "repo.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func reopen(t *testing.T, l *Log, path string) *Log {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestFreshLogIsEmpty(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if l.Repository().NumUsers() != 0 || l.Recovered != 0 {
		t.Fatalf("fresh log: %d users, recovered %d", l.Repository().NumUsers(), l.Recovered)
	}
}

func TestAppendAndReplay(t *testing.T) {
	l, path := openTemp(t)
	alice, err := l.AddUser("Alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetScore(alice, "livesIn Tokyo", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.SetScore(alice, "avgRating Mexican", 0.95); err != nil {
		t.Fatal(err)
	}
	bob, err := l.AddUser("Bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetScore(bob, "avgRating Mexican", 0.3); err != nil {
		t.Fatal(err)
	}

	back := reopen(t, l, path)
	defer back.Close()
	repo := back.Repository()
	if repo.NumUsers() != 2 {
		t.Fatalf("users = %d", repo.NumUsers())
	}
	if repo.UserName(0) != "Alice" || repo.UserName(1) != "Bob" {
		t.Fatalf("names = %q, %q", repo.UserName(0), repo.UserName(1))
	}
	id, ok := repo.Catalog().Lookup("avgRating Mexican")
	if !ok {
		t.Fatal("property lost")
	}
	if s, ok := repo.Profile(0).Score(id); !ok || s != 0.95 {
		t.Fatalf("Alice's score = %v,%v", s, ok)
	}
	if back.Recovered != 0 {
		t.Fatalf("clean log reported %d recovered bytes", back.Recovered)
	}
}

func TestSetScoreValidation(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	u, _ := l.AddUser("A")
	if err := l.SetScore(u, "p", 1.5); err == nil {
		t.Fatal("invalid score accepted")
	}
	if err := l.SetScore(profile.UserID(99), "p", 0.5); err == nil {
		t.Fatal("unknown user accepted")
	}
	// The rejected writes must not have reached the log.
	path := l.path
	back := reopen(t, l, path)
	defer back.Close()
	if back.Repository().Profile(0).Len() != 0 {
		t.Fatal("rejected mutation was persisted")
	}
}

func TestLastWriteWinsAcrossReplay(t *testing.T) {
	l, path := openTemp(t)
	u, _ := l.AddUser("A")
	for _, s := range []float64{0.1, 0.5, 0.9} {
		if err := l.SetScore(u, "p", s); err != nil {
			t.Fatal(err)
		}
	}
	back := reopen(t, l, path)
	defer back.Close()
	id, _ := back.Repository().Catalog().Lookup("p")
	if s, _ := back.Repository().Profile(0).Score(id); s != 0.9 {
		t.Fatalf("score after replay = %v, want 0.9", s)
	}
}

func TestTornTailRecovery(t *testing.T) {
	l, path := openTemp(t)
	u, _ := l.AddUser("A")
	if err := l.SetScore(u, "p", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append at every possible torn point past the
	// first record: the log must reopen, recovering a valid prefix, and
	// stay usable.
	for cut := len(clean) - 1; cut > 20; cut -= 3 {
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if back.Recovered == 0 {
			t.Fatalf("cut %d: no recovery reported", cut)
		}
		// The torn log remains appendable.
		if _, err := back.AddUser("post-crash"); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := back.Close(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		again, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: reopen after recovery: %v", cut, err)
		}
		found := false
		for uu := 0; uu < again.Repository().NumUsers(); uu++ {
			if again.Repository().UserName(profile.UserID(uu)) == "post-crash" {
				found = true
			}
		}
		if !found {
			t.Fatalf("cut %d: post-recovery append lost", cut)
		}
		again.Close()
	}
}

func TestCorruptTailStopsReplay(t *testing.T) {
	l, path := openTemp(t)
	u, _ := l.AddUser("A")
	l.SetScore(u, "p", 0.5)
	l.AddUser("B")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a byte in the last record's payload: checksum fails, replay keeps
	// the prefix.
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Recovered == 0 {
		t.Fatal("corruption not detected")
	}
	if back.Repository().NumUsers() != 1 {
		t.Fatalf("users = %d, want the pre-corruption prefix", back.Repository().NumUsers())
	}
}

// sampleCuts returns bucket cuts for properties 0 and 1, with the upper
// bound of property 1's last bucket at hi.
func sampleCuts(hi float64) map[profile.PropertyID][]bucketing.Bucket {
	return map[profile.PropertyID][]bucketing.Bucket{
		0: {{Lo: 0, Hi: 0.5}, {Lo: 0.5, Hi: 1, ClosedHi: true}},
		1: {{Lo: 0.25, Hi: hi, ClosedHi: true}},
	}
}

func sameCuts(a, b map[profile.PropertyID][]bucketing.Bucket) bool {
	return maps.EqualFunc(a, b, slices.Equal)
}

// Compaction keeps the repository and the cuts the log holds, and the log
// stays appendable.
func TestCompact(t *testing.T) {
	l, path := openTemp(t)
	for i := 0; i < 20; i++ {
		u, _ := l.AddUser("user")
		l.SetScore(u, "p", 0.5)
		l.SetScore(u, "q", 0.25)
	}
	cuts := sampleCuts(0.25)
	if err := l.AppendBuckets(cuts); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	if err := l.CompactWith(l.Repository()); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the log: %d -> %d", before.Size(), after.Size())
	}
	// The log remains appendable after compaction, and everything survives
	// a reopen.
	u, err := l.AddUser("late")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetScore(u, "r", 1); err != nil {
		t.Fatal(err)
	}
	back := reopen(t, l, path)
	defer back.Close()
	if back.Repository().NumUsers() != 21 {
		t.Fatalf("users after compaction+reopen = %d, want 21", back.Repository().NumUsers())
	}
	id, ok := back.Repository().Catalog().Lookup("r")
	if !ok {
		t.Fatal("post-compaction property lost")
	}
	if s, _ := back.Repository().Profile(20).Score(id); s != 1 {
		t.Fatalf("post-compaction score = %v", s)
	}
	if !sameCuts(back.Buckets(), cuts) {
		t.Fatalf("cuts after compaction+reopen = %v, want %v", back.Buckets(), cuts)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(path, []byte("this is not a PLOG file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("foreign file accepted")
	}
}

// The detached append-only API stages records without touching the replayed
// repository; replay on reopen reconstructs the caller's state exactly.
func TestDetachedAppendAndReplay(t *testing.T) {
	l, path := openTemp(t)
	// The caller owns the authoritative repository.
	repo := profile.NewRepository()
	alice := repo.AddUser("Alice")
	if err := l.AppendAddUser("Alice"); err != nil {
		t.Fatal(err)
	}
	repo.MustSetScore(alice, "p", 0.7)
	if err := l.AppendSetScore(alice, "p", 0.7); err != nil {
		t.Fatal(err)
	}
	bob := repo.AddUser("Bob")
	if err := l.AppendAddUser("Bob"); err != nil {
		t.Fatal(err)
	}
	repo.MustSetScore(bob, "p", 0.2)
	if err := l.AppendSetScore(bob, "p", 0.2); err != nil {
		t.Fatal(err)
	}
	// One Sync covers the whole batch.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// The log's replayed repository is stale by design...
	if l.Repository().NumUsers() != 0 {
		t.Fatalf("detached append mutated the replayed repository: %d users", l.Repository().NumUsers())
	}
	// ...but replay reconstructs the authoritative state.
	back := reopen(t, l, path)
	defer back.Close()
	if back.Repository().NumUsers() != 2 {
		t.Fatalf("replayed %d users, want 2", back.Repository().NumUsers())
	}
	pid, _ := back.Repository().Catalog().Lookup("p")
	if s, _ := back.Repository().Profile(alice).Score(pid); s != 0.7 {
		t.Fatalf("alice's score = %v, want 0.7", s)
	}
}

// Rejected appends reach no byte of the file.
func TestDetachedAppendValidation(t *testing.T) {
	l, path := openTemp(t)
	if err := l.AppendSetScore(0, "p", 1.5); err == nil {
		t.Fatal("out-of-range score accepted")
	}
	if err := l.AppendSetScore(-1, "p", 0.5); err == nil {
		t.Fatal("negative user accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != logMagic+"\x01" {
		t.Fatalf("log after rejected appends = %q, %v; want the header alone", data, err)
	}
}

// TestCrashAtEverySync copies the log after every fsync — the file a crash
// right after it would leave — and requires each copy to replay exactly the
// mutations and the bucket cuts synced so far: staged batches with a Sync
// after each, some of them staging boundaries records (one replacing an
// earlier record's cuts), and a compaction between them.
func TestCrashAtEverySync(t *testing.T) {
	l, path := openTemp(t)
	want := profile.NewRepository()
	wantCuts := map[profile.PropertyID][]bucketing.Bucket{}
	type crash struct {
		file, state []byte
		cuts        map[profile.PropertyID][]bucketing.Bucket
	}
	var crashes []crash
	snapshot := func() {
		t.Helper()
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var state bytes.Buffer
		if err := codec.WriteRepository(&state, want); err != nil {
			t.Fatal(err)
		}
		crashes = append(crashes, crash{file, state.Bytes(), maps.Clone(wantCuts)})
	}
	snapshot() // Open fsynced the new log's header
	for batch := 0; batch < 12; batch++ {
		for m := 0; m <= batch%4; m++ {
			if batch%3 == 0 || want.NumUsers() == 0 {
				name := fmt.Sprintf("u%d.%d", batch, m)
				want.AddUser(name)
				if err := l.AppendAddUser(name); err != nil {
					t.Fatal(err)
				}
				continue
			}
			u := profile.UserID((batch * 7 / (m + 1)) % want.NumUsers())
			label, score := fmt.Sprintf("p%d", (batch+m)%5), float64(batch*m%11)/10
			want.MustSetScore(u, label, score)
			if err := l.AppendSetScore(u, label, score); err != nil {
				t.Fatal(err)
			}
		}
		if batch%3 == 2 {
			// Cuts for every property seen so far: the first record covers
			// new properties, later ones replace earlier cuts too.
			cuts := map[profile.PropertyID][]bucketing.Bucket{}
			for p := 0; p < want.NumProperties(); p++ {
				cuts[profile.PropertyID(p)] = []bucketing.Bucket{{Lo: 0, Hi: float64(batch) / 12, ClosedHi: true}}
			}
			maps.Copy(wantCuts, cuts)
			if err := l.AppendBuckets(cuts); err != nil {
				t.Fatal(err)
			}
			if !sameCuts(l.Buckets(), wantCuts) {
				t.Fatalf("batch %d: staged cuts %v, want %v", batch, l.Buckets(), wantCuts)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		snapshot()
		if batch == 6 {
			if err := l.CompactWith(want.Clone()); err != nil {
				t.Fatal(err)
			}
			snapshot()
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, c := range crashes {
		copyPath := filepath.Join(dir, fmt.Sprintf("crash%d.plog", i))
		if err := os.WriteFile(copyPath, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(copyPath)
		if err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
		var got bytes.Buffer
		if err := codec.WriteRepository(&got, back.Repository()); err != nil {
			t.Fatal(err)
		}
		back.Close()
		if back.Recovered != 0 || !bytes.Equal(got.Bytes(), c.state) {
			t.Fatalf("crash %d: replay (recovered %d) differs from the mutations synced so far", i, back.Recovered)
		}
		if !sameCuts(back.Buckets(), c.cuts) {
			t.Fatalf("crash %d: replayed cuts %v, want the %d synced so far", i, back.Buckets(), len(c.cuts))
		}
	}
}

// A torn tail can declare a record as long as the format's cap. Replay must
// see that the file cannot hold it before allocating anything: the 23-byte
// log below ends in a snapshot kind and a 1 GiB length.
func TestTornHugeLengthAllocatesNothing(t *testing.T) {
	l, path := openTemp(t)
	if _, err := l.AddUser("Alice"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := binary.AppendUvarint([]byte{recSnapshot}, maxRecordLen)
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if info, _ := os.Stat(path); info.Size() != 23 {
		t.Fatalf("log is %d bytes, want 23", info.Size())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := Open(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("replay allocated %d bytes for a 23-byte log", alloc)
	}
	if back.Recovered != int64(len(tail)) || back.Repository().NumUsers() != 1 {
		t.Fatalf("recovered %d bytes and %d users, want %d and 1", back.Recovered, back.Repository().NumUsers(), len(tail))
	}
}

// TestCompactCrashStates builds by hand the files a crash inside compaction
// leaves: its temp file cut at several points, or complete, beside the
// intact log. In each, Open must replay the old log, and a CompactWith after
// it must succeed and reopen to the compacted state.
func TestCompactCrashStates(t *testing.T) {
	encode := func(repo *profile.Repository) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := codec.WriteRepository(&buf, repo); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	l, path := openTemp(t)
	for i := 0; i < 5; i++ {
		u, _ := l.AddUser(fmt.Sprintf("u%d", i))
		l.SetScore(u, "p", float64(i)/4)
	}
	cuts := sampleCuts(1)
	if err := l.AppendBuckets(cuts); err != nil {
		t.Fatal(err)
	}
	oldRepo := encode(l.Repository())
	next := l.Repository().Clone()
	next.AddUser("late")
	newRepo := encode(next)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The temp file a finished compaction renames: the same log compacted
	// elsewhere.
	elsewhere := filepath.Join(t.TempDir(), "repo.plog")
	if err := os.WriteFile(elsewhere, old, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(elsewhere)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompactWith(next.Clone()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	full, err := os.ReadFile(elsewhere)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, len(logMagic) + 1, len(full) / 2, len(full) - 1, len(full)} {
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".tmp", full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(path)
		if err != nil {
			t.Fatalf("tmp cut at %d: %v", cut, err)
		}
		if back.Recovered != 0 || !bytes.Equal(encode(back.Repository()), oldRepo) || !sameCuts(back.Buckets(), cuts) {
			t.Fatalf("tmp cut at %d: Open did not replay the old log (recovered %d)", cut, back.Recovered)
		}
		if err := back.CompactWith(next.Clone()); err != nil {
			t.Fatalf("tmp cut at %d: compaction: %v", cut, err)
		}
		again := reopen(t, back, path)
		if !bytes.Equal(encode(again.Repository()), newRepo) || !sameCuts(again.Buckets(), cuts) {
			t.Fatalf("tmp cut at %d: compacted log replays another state", cut)
		}
		again.Close()
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("tmp cut at %d: temp file left behind: %v", cut, err)
		}
	}
}
