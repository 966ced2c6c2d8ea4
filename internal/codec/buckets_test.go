package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/profile"
)

func sampleBuckets() map[profile.PropertyID][]bucketing.Bucket {
	return map[profile.PropertyID][]bucketing.Bucket{
		0: {
			{Lo: 0, Hi: 0.25},
			{Lo: 0.25, Hi: 0.7},
			{Lo: 0.7, Hi: 1, ClosedHi: true},
		},
		3: {
			{Lo: 0.5, Hi: 0.5, ClosedHi: true}, // degenerate single-value cut
		},
		7: {
			{Lo: 0, Hi: 1, ClosedHi: true},
		},
	}
}

func TestBucketsRoundTrip(t *testing.T) {
	want := sampleBuckets()
	var buf bytes.Buffer
	if err := WriteBuckets(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBuckets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, want)
	}
}

func TestBucketsRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBuckets(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBuckets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty round trip = %v", got)
	}
}

// ReadBucketsFile reads a sidecar file, the one a mutable server migrates
// into a log with no boundaries record.
func TestBucketsFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.plog.buckets")
	want := sampleBuckets()
	var buf bytes.Buffer
	if err := WriteBuckets(&buf, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBucketsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file round trip:\n got %v\nwant %v", got, want)
	}
}

func TestBucketsRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBuckets(&buf, sampleBuckets()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("XODM"), good[4:]...),
		"bad version":    append(append([]byte(magic), 99), good[5:]...),
		"wrong tag":      append(append([]byte(magic), imageVersion, tagStore), good[6:]...),
		"truncated":      good[:len(good)-5],
		"trailing bytes": append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		if _, err := ReadBuckets(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestBucketsChecksumDetectsCorruption: a payload byte flip fails the
// leading CRC32C with ErrChecksum, and a legacy tag-3 sidecar (same payload,
// no integrity word) still loads.
func TestBucketsChecksumDetectsCorruption(t *testing.T) {
	want := sampleBuckets()
	var buf bytes.Buffer
	if err := WriteBuckets(&buf, want); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip a payload byte (after magic+version+tag+crc).
	mut := append([]byte(nil), good...)
	mut[len(magic)+2+4+1] ^= 0x10
	if _, err := ReadBuckets(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload corruption returned %v, want ErrChecksum", err)
	}
	// Flip a CRC byte: same verdict.
	mut = append([]byte(nil), good...)
	mut[len(magic)+2] ^= 0x10
	if _, err := ReadBuckets(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("crc corruption returned %v, want ErrChecksum", err)
	}

	// Legacy file: tag 3, no CRC word, identical payload.
	legacy := append(append([]byte(magic), imageVersion, tagBuckets), good[len(magic)+2+4:]...)
	got, err := ReadBuckets(legacy)
	if err != nil {
		t.Fatalf("legacy tag-%d sidecar rejected: %v", tagBuckets, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy round trip:\n got %v\nwant %v", got, want)
	}
}

// frameBuckets wraps payload in a valid buckets section header: the CRC32C
// word of tagBucketsCRC, or none under the legacy tagBuckets.
func frameBuckets(payload []byte, legacy bool) []byte {
	if legacy {
		return append(append([]byte(magic), imageVersion, tagBuckets), payload...)
	}
	out := append([]byte(magic), imageVersion, tagBucketsCRC)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// A bucket count whose 17-byte buckets overflow uint64 is refused, not
// allocated: 17 × 1085102592571150096 wraps to 16, which the 17 bytes that
// follow would satisfy.
func TestBucketsRejectsOverflowingCount(t *testing.T) {
	payload := binary.AppendUvarint([]byte{1, 0}, 1085102592571150096)
	payload = append(payload, make([]byte, 17)...)
	for _, legacy := range []bool{false, true} {
		if got, err := ReadBuckets(frameBuckets(payload, legacy)); err == nil {
			t.Fatalf("legacy=%v: decoded %d properties from an overflowing bucket count", legacy, len(got))
		}
	}
}
