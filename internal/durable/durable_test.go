package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

const (
	testMagic   = "TEST"
	testVersion = 3
	testMax     = 1 << 12
	headerLen   = len(testMagic) + 1
)

type record struct {
	kind    byte
	payload []byte
}

// openRecords opens the journal at path and returns it with the records it
// replayed.
func openRecords(t testing.TB, path string) (*Journal, []record) {
	t.Helper()
	var got []record
	j, err := Open(path, testMagic, testVersion, testMax, func(kind byte, payload []byte) error {
		got = append(got, record{kind, payload})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, got
}

func sameRecords(a, b []record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

// testRecords returns records whose payloads run from empty to past the
// one-byte length varint (127 bytes), each with distinct bytes.
func testRecords() []record {
	var out []record
	for i, n := range []int{0, 1, 2, 7, 31, 126, 127, 128, 129, 255, 300} {
		p := make([]byte, n)
		for k := range p {
			p[k] = byte(i*31 + k)
		}
		out = append(out, record{byte(i%5 + 1), p})
	}
	return out
}

// TestTornTailEveryByte cuts a journal at every byte past its header. Each
// cut must replay exactly the records that end at or before it, through
// Read without changing the file and through Open, which reports the rest
// as recovered, and keep a record appended after recovery across a reopen.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full")
	j, _ := openRecords(t, path)
	recs := testRecords()
	var ends []int64 // ends[i] is the file size once record i is written
	for _, r := range recs {
		if err := j.Append(r.kind, r.payload); err != nil {
			t.Fatal(err)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, info.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after := record{9, []byte("after recovery")}
	cutPath := filepath.Join(dir, "cut")
	for cut := headerLen; cut <= len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		complete, kept := 0, int64(headerLen)
		for complete < len(ends) && ends[complete] <= int64(cut) {
			kept = ends[complete]
			complete++
		}
		var read []record
		if err := Read(cutPath, testMagic, testVersion, testMax, func(kind byte, payload []byte) error {
			read = append(read, record{kind, payload})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !sameRecords(read, recs[:complete]) {
			t.Fatalf("cut %d: Read replayed %d records, want the %d complete ones", cut, len(read), complete)
		}
		if data, err := os.ReadFile(cutPath); err != nil || !bytes.Equal(data, full[:cut]) {
			t.Fatalf("cut %d: Read changed the file to %d bytes (%v)", cut, len(data), err)
		}
		j, got := openRecords(t, cutPath)
		if !sameRecords(got, recs[:complete]) {
			t.Fatalf("cut %d: replayed %d records, want the %d complete ones", cut, len(got), complete)
		}
		if j.Recovered != int64(cut)-kept {
			t.Fatalf("cut %d: recovered %d bytes, want %d", cut, j.Recovered, int64(cut)-kept)
		}
		if err := j.Append(after.kind, after.payload); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, got := openRecords(t, cutPath)
		again.Close()
		want := append(append([]record(nil), recs[:complete]...), after)
		if again.Recovered != 0 || !sameRecords(got, want) {
			t.Fatalf("cut %d: reopen after recovery replayed %d records (recovered %d), want %d", cut, len(got), again.Recovered, len(want))
		}
	}
}

func TestOpenRejectsForeignHeader(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"magic":   "NOPE\x03",
		"version": "TEST\x04",
		"short":   "TES",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, testMagic, testVersion, testMax, func(byte, []byte) error { return nil }); err == nil {
			t.Errorf("%s: foreign header accepted", name)
		}
	}
}

func TestReplayErrorAbortsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openRecords(t, path)
	j.Append(1, []byte("x"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("bad record")
	if _, err := Open(path, testMagic, testVersion, testMax, func(byte, []byte) error { return bad }); !errors.Is(err, bad) {
		t.Fatalf("Open returned %v, want the replay error", err)
	}
}

// Append refuses a record over the cap: replay would drop it, and every
// record after it, as a torn tail.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _ := openRecords(t, path)
	if err := j.Append(1, make([]byte, testMax+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := j.Replace(Record{1, nil}, Record{2, make([]byte, testMax+1)}); err == nil {
		t.Fatal("oversized replacement accepted")
	}
	if err := j.Append(1, make([]byte, testMax)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, got := openRecords(t, path); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

// A failed write leaves the target as it was and removes the temp file.
func TestWriteFileFailureKeepsTarget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "old"); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		fmt.Fprint(w, "partial new contents")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the write error", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "old" {
		t.Fatalf("target after failed write: %q, %v", data, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// FuzzOpen feeds arbitrary bytes after a valid header. Open must not fail or
// panic, and the file it leaves, with one record appended, must reopen to
// the same records plus that one with nothing more recovered.
func FuzzOpen(f *testing.F) {
	var body bytes.Buffer
	for _, r := range testRecords() {
		writeRecord(&body, r.kind, r.payload)
	}
	f.Add(body.Bytes())
	f.Add(body.Bytes()[:body.Len()-3])
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, append(append([]byte(testMagic), testVersion), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, first := openRecords(t, path)
		after := record{9, []byte("after recovery")}
		if err := j.Append(after.kind, after.payload); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, second := openRecords(t, path)
		again.Close()
		if again.Recovered != 0 || !sameRecords(second, append(first, after)) {
			t.Fatalf("second open replayed %d records (recovered %d), want %d", len(second), again.Recovered, len(first)+1)
		}
	})
}
