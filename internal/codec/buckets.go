package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"podium/internal/bucketing"
	"podium/internal/profile"
)

// The buckets section of the format-v2 snapshot image: the bucket boundaries
// β(p) a live index assigns scores with. A mutable server restart replays the
// repository log and rebuilds its group index, but re-running the splitting
// method over the final score distribution can derive different cuts than the
// live incrementally-bucketed index that produced the log — and different
// cuts mean different groups and different selections. The repository log's
// boundaries records carry this section as their payload, and rebuilding with
// groups.Config.FixedBuckets makes a restart bit-reproduce the live index's
// group memberships.
//
//	magic "PODM" | version 2 | tagBucketsCRC | payload CRC32C (uint32 LE)
//	varint nProps
//	per property, ascending PropertyID:
//	  varint pid | varint nBuckets
//	  per bucket: lo float64 bits (LE) | hi float64 bits (LE) | closedHi byte
//
// The CRC32C covers everything after itself. Sections written before the
// checksum existed carry tagBuckets (3) with no CRC word and load without
// verification; a tagBucketsCRC section whose payload fails the check
// returns ErrChecksum. Before the log held the cuts they lived in a sidecar
// file beside it (ReadBucketsFile); a mutable server reads that file once,
// to migrate a log with no boundaries record, and fails start-up on one
// that does not decode.
//
// PropertyIDs are stable across a log replay (the catalog interns labels in
// log order), so the map keys survive the restart they exist for.

const (
	tagBuckets    byte = 3 // legacy: no integrity word
	tagBucketsCRC byte = 4 // CRC32C of the payload follows the tag
)

// WriteBuckets encodes per-property bucket boundaries as a format-v2 image
// section.
func WriteBuckets(w io.Writer, buckets map[profile.PropertyID][]bucketing.Bucket) error {
	// The payload is buffered (it is small — tens of bytes per property) so
	// its CRC32C can lead it on the wire.
	var payload bytes.Buffer
	pids := make([]int, 0, len(buckets))
	for p := range buckets {
		pids = append(pids, int(p))
	}
	sort.Ints(pids)
	writeUvarint(&payload, uint64(len(pids)))
	var b8 [8]byte
	for _, pid := range pids {
		bs := buckets[profile.PropertyID(pid)]
		writeUvarint(&payload, uint64(pid))
		writeUvarint(&payload, uint64(len(bs)))
		for _, b := range bs {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(b.Lo))
			payload.Write(b8[:])
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(b.Hi))
			payload.Write(b8[:])
			if b.ClosedHi {
				payload.WriteByte(1)
			} else {
				payload.WriteByte(0)
			}
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(magic)
	bw.WriteByte(imageVersion)
	bw.WriteByte(tagBucketsCRC)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(payload.Bytes(), castagnoli))
	bw.Write(b4[:])
	bw.Write(payload.Bytes())
	return bw.Flush()
}

// ReadBuckets decodes a buckets section from an in-memory byte slice.
func ReadBuckets(data []byte) (map[profile.PropertyID][]bucketing.Bucket, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("codec: bad magic")
	}
	if data[len(magic)] != imageVersion {
		return nil, fmt.Errorf("codec: not a format-v2 image (version %d)", data[len(magic)])
	}
	tag := data[len(magic)+1]
	if tag != tagBuckets && tag != tagBucketsCRC {
		return nil, fmt.Errorf("codec: image section tag %d, want %d or %d", tag, tagBuckets, tagBucketsCRC)
	}
	rest := data[len(magic)+2:]
	if tag == tagBucketsCRC {
		if len(rest) < 4 {
			return nil, fmt.Errorf("codec: buckets section truncated before its checksum")
		}
		want := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if got := crc32.Checksum(rest, castagnoli); got != want {
			return nil, fmt.Errorf("%w: buckets payload crc %08x, header %08x", ErrChecksum, got, want)
		}
	}
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("codec: reading %s: truncated buckets section", what)
		}
		rest = rest[n:]
		return v, nil
	}
	nProps, err := uvarint("property count")
	if err != nil {
		return nil, err
	}
	if nProps > uint64(len(rest)) {
		return nil, fmt.Errorf("codec: buckets section declares %d properties, %d bytes remain", nProps, len(rest))
	}
	out := make(map[profile.PropertyID][]bucketing.Bucket, nProps)
	prevPid := -1
	for i := uint64(0); i < nProps; i++ {
		pid, err := uvarint("property id")
		if err != nil {
			return nil, err
		}
		if pid > math.MaxUint32 || int(pid) <= prevPid {
			return nil, fmt.Errorf("codec: bucket property ids not ascending at %d", pid)
		}
		prevPid = int(pid)
		nb, err := uvarint("bucket count")
		if err != nil {
			return nil, err
		}
		if nb > uint64(len(rest))/17 {
			return nil, fmt.Errorf("codec: property %d declares %d buckets, %d bytes remain", pid, nb, len(rest))
		}
		bs := make([]bucketing.Bucket, nb)
		for j := range bs {
			lo := math.Float64frombits(binary.LittleEndian.Uint64(rest))
			hi := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
			closed := rest[16]
			rest = rest[17:]
			if closed > 1 || lo != lo || hi != hi || lo > hi {
				return nil, fmt.Errorf("codec: property %d bucket %d is malformed [%v,%v,%d]", pid, j, lo, hi, closed)
			}
			bs[j] = bucketing.Bucket{Lo: lo, Hi: hi, ClosedHi: closed == 1}
		}
		out[profile.PropertyID(pid)] = bs
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("codec: buckets section has %d trailing bytes", len(rest))
	}
	return out, nil
}

// ReadBucketsFile loads bucket boundaries from a sidecar file.
func ReadBucketsFile(path string) (map[profile.PropertyID][]bucketing.Bucket, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return ReadBuckets(data)
}
