package codec

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"podium/internal/profile"
)

// FuzzReadRepository drives the binary repository readers — both the v1
// varint stream and the v2 columnar image — with arbitrary input, mirroring
// profile.FuzzReadJSON: they must never panic, and anything they accept must
// be a fully valid repository that round-trips.
func FuzzReadRepository(f *testing.F) {
	repo := profile.PaperExample()
	repo.Seal()
	var v1, v2 bytes.Buffer
	if err := WriteRepository(&v1, repo); err != nil {
		f.Fatal(err)
	}
	if err := WriteRepositoryImage(&v2, repo); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v1.Bytes()[:len(v1.Bytes())/2])
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	f.Add([]byte("PODM"))
	f.Add([]byte("PODM\x01\x01"))
	f.Add([]byte("PODM\x02\x01"))
	f.Add([]byte("PODM\x02\x01\x00\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		repo, err := ReadRepository(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: structural invariants must hold.
		prev := -1
		repo.EachRow(func(u profile.UserID, props []profile.PropertyID, scores []float64) {
			if int(u) != prev+1 {
				t.Fatalf("row order broken at user %d", u)
			}
			prev = int(u)
			last := profile.PropertyID(-1)
			for i, id := range props {
				if id <= last || int(id) >= repo.NumProperties() {
					t.Fatalf("user %d: invalid property sequence", u)
				}
				last = id
				if s := scores[i]; s < 0 || s > 1 || s != s {
					t.Fatalf("user %d: accepted score %v", u, s)
				}
			}
		})
		// And it must round-trip through the v2 image bit-exactly at the
		// repository level.
		var img bytes.Buffer
		if err := WriteRepositoryImage(&img, repo); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadRepositoryImage(img.Bytes())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.NumUsers() != repo.NumUsers() || again.NumProperties() != repo.NumProperties() {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzReadBuckets drives the boundaries decoder, whose payloads the
// repository log replays on every mutable server start, with arbitrary
// payloads framed by a valid header and, unless legacy, a valid CRC32C, so
// the decoder rather than the checksum is fuzzed. It must never panic, and a
// map it accepts must re-encode and decode equal.
func FuzzReadBuckets(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBuckets(&buf, sampleBuckets()); err != nil {
		f.Fatal(err)
	}
	payload := buf.Bytes()[len(magic)+2+4:]
	f.Add(false, payload)
	f.Add(true, payload)
	f.Add(false, []byte{0})
	f.Add(false, append(binary.AppendUvarint([]byte{1, 0}, 1085102592571150096), make([]byte, 17)...))
	f.Fuzz(func(t *testing.T, legacy bool, payload []byte) {
		got, err := ReadBuckets(frameBuckets(payload, legacy))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteBuckets(&again, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadBuckets(again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded section rejected: %v", err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the cuts:\n got %v\nwant %v", back, got)
		}
	})
}
