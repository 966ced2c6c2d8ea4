package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"podium/internal/groups"
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

// TestPinnedFileBytes pins the image file and the buckets section (the
// repository log's boundaries payload) written for the ScaleLike(200)
// repository and its K=3 index, and requires each to load back to what was
// written.
func TestPinnedFileBytes(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(200)).Repo
	repo.Seal()
	dir := t.TempDir()

	img := filepath.Join(dir, "repo.img")
	if err := WriteImageFile(img, repo); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "image", data)
	back, err := ReadImageFile(img)
	if err != nil {
		t.Fatal(err)
	}
	assertRepoEqual(t, repo, back)

	bounds := groups.Build(repo, groups.Config{K: 3}).BucketBoundaries()
	var section bytes.Buffer
	if err := WriteBuckets(&section, bounds); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "buckets", section.Bytes())
	got, err := ReadBuckets(section.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bounds) {
		t.Fatal("pinned buckets section loads different boundaries")
	}
}
