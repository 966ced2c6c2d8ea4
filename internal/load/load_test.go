package load

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/codec"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/synth"
)

func TestLoadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.PaperExample().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	repo, _, err := Repository(path)
	if err != nil {
		t.Fatal(err)
	}
	if repo.NumUsers() != 5 {
		t.Fatalf("users = %d", repo.NumUsers())
	}
}

func TestLoadBinaryRepository(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.podium")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteRepository(f, profile.PaperExample()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	repo, _, err := Repository(path)
	if err != nil {
		t.Fatal(err)
	}
	if repo.NumUsers() != 5 {
		t.Fatalf("users = %d", repo.NumUsers())
	}
}

func TestLoadBinaryDataset(t *testing.T) {
	ds := synth.Generate(synth.YelpLike(30))
	path := filepath.Join(t.TempDir(), "dataset.podium")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteDataset(f, ds.Repo, ds.Store); err != nil {
		t.Fatal(err)
	}
	f.Close()

	repo, store, err := Dataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if repo.NumUsers() != 30 || store == nil || store.NumReviews() != ds.Store.NumReviews() {
		t.Fatalf("dataset loaded wrong: %d users, store %v", repo.NumUsers(), store != nil)
	}
	// Repository() on a dataset file yields the repo without the store.
	repoOnly, _, err := Repository(path)
	if err != nil {
		t.Fatal(err)
	}
	if repoOnly.NumUsers() != 30 {
		t.Fatalf("repo-only users = %d", repoOnly.NumUsers())
	}
}

func TestLoadRepositoryLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.plog")
	l, err := repolog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := l.AddUser("Alice")
	if err := l.SetScore(u, "p", 0.5); err != nil {
		t.Fatal(err)
	}
	want := map[profile.PropertyID][]bucketing.Bucket{0: {{Lo: 0, Hi: 1, ClosedHi: true}}}
	if err := l.AppendBuckets(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	repo, cuts, err := Repository(path)
	if err != nil {
		t.Fatal(err)
	}
	if repo.NumUsers() != 1 || repo.UserName(0) != "Alice" {
		t.Fatalf("log repo = %d users", repo.NumUsers())
	}
	if !reflect.DeepEqual(cuts, want) {
		t.Fatalf("log cuts = %v, want %v", cuts, want)
	}
}

// Loading a log never writes it. A writer whose staged batch is partly
// flushed leaves a torn record at the file's end; a load beside it replays
// what is whole and leaves the file alone, so the writer's next Sync
// commits every user.
func TestLoadLogBesideWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.plog")
	l, err := repolog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 310; i++ {
		if i == 10 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.AddUser(fmt.Sprintf("user-%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	repo, _, err := Repository(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := repo.NumUsers(); n < 10 || n >= 310 {
		t.Fatalf("premise: the load saw %d users, want the synced 10 and part of the staged batch", n)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("loading the log changed it: %d bytes before, %d after (%v)", len(before), len(after), err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if repo, _, err = Repository(path); err != nil {
		t.Fatal(err)
	}
	if n := repo.NumUsers(); n != 310 {
		t.Fatalf("after the writer's Sync the log holds %d users, want 310", n)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Repository(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadGarbageFallsToJSONError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("certainly not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Repository(path); err == nil {
		t.Fatal("garbage accepted")
	}
}
