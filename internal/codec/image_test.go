package codec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"podium/internal/profile"
	"podium/internal/synth"
)

func TestImageRoundTrip(t *testing.T) {
	ds := synth.Generate(synth.TripAdvisorLike(120))
	ds.Repo.Seal()
	var buf bytes.Buffer
	if err := WriteRepositoryImage(&buf, ds.Repo); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepositoryImage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertRepoEqual(t, ds.Repo, back)
}

// A decoded image must re-encode to the exact same bytes: the image is a
// faithful columnar dump, not a lossy projection.
func TestImageBitIdenticalReencode(t *testing.T) {
	ds := synth.Generate(synth.YelpLike(80))
	ds.Repo.Seal()
	var first bytes.Buffer
	if err := WriteRepositoryImage(&first, ds.Repo); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepositoryImage(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteRepositoryImage(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("image re-encode is not bit-identical")
	}
}

func TestImageFileRoundTrip(t *testing.T) {
	repo := profile.PaperExample()
	repo.Seal()
	path := filepath.Join(t.TempDir(), "repo.img")
	if err := WriteImageFile(path, repo); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertRepoEqual(t, repo, back)
	// The generic stream reader must accept v2 images too.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ReadRepository(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertRepoEqual(t, repo, again)
}

func TestImageRejectsCorruption(t *testing.T) {
	repo := profile.PaperExample()
	repo.Seal()
	var buf bytes.Buffer
	if err := WriteRepositoryImage(&buf, repo); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Every input is also written to a file: ReadImageFile, which streams
	// from the file, must give the in-memory reader's verdict and repository.
	path := filepath.Join(t.TempDir(), "repo.img")
	read := func(data []byte) (*profile.Repository, error) {
		t.Helper()
		repo, err := ReadRepositoryImage(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, ferr := ReadImageFile(path)
		if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
			t.Fatalf("%d bytes: ReadRepositoryImage says %v, ReadImageFile %v", len(data), err, ferr)
		}
		if err == nil {
			assertRepoEqual(t, repo, fromFile)
		}
		return repo, err
	}

	for _, n := range []int{0, 3, 5, 6, 10, len(good) / 2, len(good) - 1} {
		if _, err := read(good[:n]); err == nil {
			t.Errorf("accepted truncation to %d bytes", n)
		}
	}
	// Flip bytes across the file; every mutation must either fail or decode
	// into a fully valid repository (header/blob bytes may legally change
	// names), never panic or corrupt.
	for i := 0; i < len(good); i += 7 {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		repo, err := read(mut)
		if err != nil {
			continue
		}
		repo.EachRow(func(_ profile.UserID, props []profile.PropertyID, scores []float64) {
			for i, s := range scores {
				if s < 0 || s > 1 || s != s || int(props[i]) >= repo.NumProperties() {
					t.Fatalf("byte-flip at %d decoded an invalid repository", i)
				}
			}
		})
	}
}

// The golden v1 file pins backward compatibility: a file written by the v1
// encoder before the columnar rewrite must keep decoding to the same
// repository, byte for byte of its JSON projection.
func TestGoldenV1Compatibility(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1_paper_example.podm"))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := ReadRepository(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 golden file no longer decodes: %v", err)
	}
	assertRepoEqual(t, profile.PaperExample(), repo)
	// And the v1 encoder still produces those exact bytes.
	var buf bytes.Buffer
	if err := WriteRepository(&buf, profile.PaperExample()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("v1 encoder output drifted from the golden file")
	}
}

// TestImageChecksumDetectsSectionCorruption: a byte flip in any section is
// caught by its CRC32C and reported as ErrChecksum — the signal load paths
// use to fall back to a slower-but-intact source.
func TestImageChecksumDetectsSectionCorruption(t *testing.T) {
	ds := synth.Generate(synth.TripAdvisorLike(60))
	ds.Repo.Seal()
	var buf bytes.Buffer
	if err := WriteRepositoryImage(&buf, ds.Repo); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip a byte in the last section (scores), just before the trailer: a
	// score bit-flip can yield another in-range float, so only the checksum
	// catches it.
	mut := append([]byte(nil), good...)
	mut[len(mut)-4*imageSections-3] ^= 0x01
	_, err := ReadRepositoryImage(mut)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("score-section corruption returned %v, want ErrChecksum", err)
	}
}

// TestImageLegacyWithoutTrailerStillLoads: images written before the
// checksum trailer carry exactly the declared section bytes and must keep
// loading, unverified.
func TestImageLegacyWithoutTrailerStillLoads(t *testing.T) {
	repo := profile.PaperExample()
	repo.Seal()
	var buf bytes.Buffer
	if err := WriteRepositoryImage(&buf, repo); err != nil {
		t.Fatal(err)
	}
	legacy := buf.Bytes()[:buf.Len()-4*imageSections]
	back, err := ReadRepositoryImage(legacy)
	if err != nil {
		t.Fatalf("trailer-less legacy image rejected: %v", err)
	}
	assertRepoEqual(t, repo, back)
}

// TestImageCrashStates builds by hand the files a crash inside
// WriteImageFile leaves: its temp file cut at several points, or complete,
// beside the intact image. In each, ReadImageFile must return the old
// repository, and a WriteImageFile after it must succeed and read back the
// new one.
func TestImageCrashStates(t *testing.T) {
	old := profile.PaperExample()
	old.Seal()
	next := profile.PaperExample()
	next.MustSetScore(next.AddUser("late"), "livesIn Tokyo", 1)
	next.Seal()
	var full bytes.Buffer
	if err := WriteRepositoryImage(&full, next); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repo.img")
	for _, cut := range []int{0, 3, full.Len() / 2, full.Len() - 1, full.Len()} {
		if err := WriteImageFile(path, old); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".tmp", full.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := ReadImageFile(path)
		if err != nil {
			t.Fatalf("tmp cut at %d: %v", cut, err)
		}
		assertRepoEqual(t, old, back)
		if err := WriteImageFile(path, next); err != nil {
			t.Fatalf("tmp cut at %d: rewrite: %v", cut, err)
		}
		back, err = ReadImageFile(path)
		if err != nil {
			t.Fatalf("tmp cut at %d: %v", cut, err)
		}
		assertRepoEqual(t, next, back)
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("tmp cut at %d: temp file left behind: %v", cut, err)
		}
	}
}

// TestImageFileStreamsIntoColumns: ReadImageFile decodes the two link-sized
// sections through a fixed buffer straight into their columns, so loading an
// image allocates its decoded columns and little else — never a second,
// encoded copy of the file.
func TestImageFileStreamsIntoColumns(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(20000)).Repo
	path := filepath.Join(t.TempDir(), "repo.img")
	if err := WriteImageFile(path, repo); err != nil {
		t.Fatal(err)
	}
	labels, names, off, props, _ := repo.RawColumns()
	// The decoded columns: both string tables (headers and bytes), the row
	// offsets, and a property ID and a score per link.
	link := reflect.TypeFor[profile.PropertyID]().Size() + reflect.TypeFor[float64]().Size()
	columns := 16*(len(labels)+len(names)) + 8*len(off) + int(link)*len(props)
	for _, l := range labels {
		columns += len(l)
	}
	for _, n := range names {
		columns += len(n)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	back, err := ReadImageFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	assertRepoEqual(t, repo, back)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(columns+2<<20); got >= limit {
		t.Fatalf("ReadImageFile allocated %d bytes for %d bytes of columns, want < %d", got, columns, limit)
	}
}
