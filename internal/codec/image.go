package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"podium/internal/durable"
	"podium/internal/profile"
)

// Format v2: the snapshot image. Where v1 interleaves varints per user —
// forcing a value-by-value decode through the repository's mutation API —
// the v2 image is the columnar repository laid out section by section, so
// loading is five small section reads, two columns streamed in fixed chunks
// and a validation pass. Varints appear only in the fixed-size header;
// every bulk section is raw little-endian.
//
//	magic "PODM" | version 2 | tagRepository
//	header (varints): nLabels, labelBlobLen, nUsers, nameBlobLen, nLinks
//	labelOff  uint32 × (nLabels+1)   label i = labelBlob[labelOff[i]:labelOff[i+1]]
//	labelBlob labelBlobLen bytes
//	nameOff   uint32 × (nUsers+1)
//	nameBlob  nameBlobLen bytes
//	rowOff    uint64 × (nUsers+1)    user u's links = [rowOff[u], rowOff[u+1])
//	props     uint32 × nLinks
//	scores    float64 bits (LE) × nLinks
//	crcs      uint32 × 7            CRC32C (Castagnoli) per section, in order
//
// The reader validates section bounds against the actual file size before
// allocating, verifies each section's CRC32C against the trailer, then
// delegates structural validation (monotone offsets, sorted rows, in-range
// scores) to profile.FromColumns — a corrupted image fails loudly (with
// ErrChecksum, so load paths can fall back to the slower source), never
// yields a half-loaded repository. Images written before the checksum
// trailer existed carry exactly the declared section bytes and load without
// verification. Label and name strings are sliced out of two blob strings,
// so a million names cost two allocations, not a million.

const imageVersion = 2

// imageSections is the number of checksummed sections in a repository image
// (labelOff, labelBlob, nameOff, nameBlob, rowOff, props, scores).
const imageSections = 7

// castagnoli is the CRC32C polynomial table — the checksum every format-v2
// integrity trailer uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a section whose stored CRC32C does not match its
// bytes: the file was corrupted after it was written. Callers match it with
// errors.Is to fall back to a slower-but-intact source (log replay, the
// original profiles file) instead of serving from a damaged image.
var ErrChecksum = errors.New("codec: section checksum mismatch")

// imageWriter tracks a running CRC32C per section while streaming to the
// buffered writer; end() closes out one section's sum.
type imageWriter struct {
	bw   *bufio.Writer
	cur  uint32
	sums []uint32
}

func (iw *imageWriter) write(p []byte) {
	iw.bw.Write(p)
	iw.cur = crc32.Update(iw.cur, castagnoli, p)
}

func (iw *imageWriter) str(s string) {
	iw.bw.WriteString(s)
	// The []byte conversion stays on the stack for the short label/name
	// strings this path writes (crc32.Update does not retain it).
	iw.cur = crc32.Update(iw.cur, castagnoli, []byte(s))
}

func (iw *imageWriter) end() {
	iw.sums = append(iw.sums, iw.cur)
	iw.cur = 0
}

// WriteRepositoryImage encodes the repository as a format-v2 snapshot image.
func WriteRepositoryImage(w io.Writer, repo *profile.Repository) error {
	labels, names, off, props, scores := repo.RawColumns()
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString(magic)
	bw.WriteByte(imageVersion)
	bw.WriteByte(tagRepository)

	labelBlobLen := 0
	for _, l := range labels {
		labelBlobLen += len(l)
	}
	nameBlobLen := 0
	for _, n := range names {
		nameBlobLen += len(n)
	}
	if labelBlobLen > math.MaxUint32 || nameBlobLen > math.MaxUint32 || len(labels) > math.MaxUint32 {
		return fmt.Errorf("codec: repository exceeds image format limits")
	}
	writeUvarint(bw, uint64(len(labels)))
	writeUvarint(bw, uint64(labelBlobLen))
	writeUvarint(bw, uint64(len(names)))
	writeUvarint(bw, uint64(nameBlobLen))
	writeUvarint(bw, uint64(len(props)))

	iw := &imageWriter{bw: bw}
	var b4 [4]byte
	var b8 [8]byte
	cum := uint32(0)
	binary.LittleEndian.PutUint32(b4[:], 0)
	iw.write(b4[:])
	for _, l := range labels {
		cum += uint32(len(l))
		binary.LittleEndian.PutUint32(b4[:], cum)
		iw.write(b4[:])
	}
	iw.end()
	for _, l := range labels {
		iw.str(l)
	}
	iw.end()
	cum = 0
	binary.LittleEndian.PutUint32(b4[:], 0)
	iw.write(b4[:])
	for _, n := range names {
		cum += uint32(len(n))
		binary.LittleEndian.PutUint32(b4[:], cum)
		iw.write(b4[:])
	}
	iw.end()
	for _, n := range names {
		iw.str(n)
	}
	iw.end()
	for _, o := range off {
		binary.LittleEndian.PutUint64(b8[:], uint64(o))
		iw.write(b8[:])
	}
	iw.end()
	for _, p := range props {
		binary.LittleEndian.PutUint32(b4[:], uint32(p))
		iw.write(b4[:])
	}
	iw.end()
	for _, s := range scores {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(s))
		iw.write(b8[:])
	}
	iw.end()
	for _, sum := range iw.sums {
		binary.LittleEndian.PutUint32(b4[:], sum)
		bw.Write(b4[:])
	}
	return bw.Flush()
}

// ReadRepositoryImage decodes a format-v2 snapshot image held in memory.
func ReadRepositoryImage(data []byte) (*profile.Repository, error) {
	return readImage(bytes.NewReader(data), int64(len(data)))
}

// imageChunk is the size of the buffer the props and scores sections
// stream through.
const imageChunk = 64 << 10

// readImage is the one image decoder, over size bytes of r. The header and
// size checks run before any allocation sized from the header; the five
// small sections are read whole, and the two link-sized columns stream
// through one fixed chunk buffer straight into their slices, so the encoded
// bytes and the decoded columns are never both held whole.
func readImage(r io.ReaderAt, size int64) (*profile.Repository, error) {
	// The prefix holds the magic, version, tag and at most five maximal
	// varints — everything the header checks read.
	prefix := make([]byte, min(size, int64(len(magic)+2+5*binary.MaxVarintLen64)))
	if err := readAt(r, prefix, 0); err != nil {
		return nil, err
	}
	if len(prefix) < len(magic)+2 || string(prefix[:len(magic)]) != magic {
		return nil, fmt.Errorf("codec: bad magic")
	}
	if prefix[len(magic)] != imageVersion {
		return nil, fmt.Errorf("codec: not a format-v2 image (version %d)", prefix[len(magic)])
	}
	if prefix[len(magic)+1] != tagRepository {
		return nil, fmt.Errorf("codec: image section tag %d, want %d", prefix[len(magic)+1], tagRepository)
	}
	hdrEnd := len(magic) + 2
	var hdr [5]uint64
	for i, what := range []string{"label count", "label blob length", "user count", "name blob length", "link count"} {
		v, n := binary.Uvarint(prefix[hdrEnd:])
		if n <= 0 {
			return nil, fmt.Errorf("codec: reading %s: truncated header", what)
		}
		hdr[i] = v
		hdrEnd += n
	}
	nLabels, labelBlobLen, nUsers, nameBlobLen, nLinks := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4]

	// Sanity-check the header against the actual payload size before any
	// allocation sized from it. The per-field bound keeps the size sum below
	// overflow for any input that could plausibly match the payload.
	limit := uint64(size) - uint64(hdrEnd)
	if nLabels > limit || labelBlobLen > limit || nUsers > limit || nameBlobLen > limit || nLinks > limit {
		return nil, fmt.Errorf("codec: image header exceeds file size")
	}
	need := 4*(nLabels+1) + labelBlobLen + 4*(nUsers+1) + nameBlobLen + 8*(nUsers+1) + 4*nLinks + 8*nLinks
	if nLabels > math.MaxUint32 || nUsers > math.MaxUint32 {
		return nil, fmt.Errorf("codec: image header exceeds format limits")
	}
	// Files with a checksum trailer carry 4 extra bytes per section; legacy
	// images carry exactly the declared section bytes and skip verification.
	var sums []uint32
	switch limit {
	case need:
	case need + 4*imageSections:
		tail := make([]byte, 4*imageSections)
		if err := readAt(r, tail, int64(hdrEnd)+int64(need)); err != nil {
			return nil, err
		}
		sums = make([]uint32, imageSections)
		for i := range sums {
			sums[i] = binary.LittleEndian.Uint32(tail[4*i:])
		}
	default:
		return nil, fmt.Errorf("codec: image declares %d bytes of sections, file carries %d", need, limit)
	}

	pos := int64(hdrEnd)
	section := 0
	verify := func(crc uint32, what string) error {
		if sums != nil && crc != sums[section] {
			return fmt.Errorf("%w: %s section crc %08x, trailer %08x", ErrChecksum, what, crc, sums[section])
		}
		section++
		return nil
	}
	take := func(n uint64, what string) ([]byte, error) {
		s := make([]byte, n)
		if err := readAt(r, s, pos); err != nil {
			return nil, err
		}
		pos += int64(n)
		return s, verify(crc32.Checksum(s, castagnoli), what)
	}
	// stream feeds n bytes of a section to decode chunk by chunk,
	// checksumming as it goes. The chunk length is a multiple of 8 and every
	// section length a multiple of its element size, so each chunk holds
	// whole elements.
	chunk := make([]byte, min(8*nLinks, imageChunk))
	stream := func(n uint64, what string, decode func(b []byte)) error {
		crc := uint32(0)
		for n > 0 {
			b := chunk[:min(n, uint64(len(chunk)))]
			if err := readAt(r, b, pos); err != nil {
				return err
			}
			crc = crc32.Update(crc, castagnoli, b)
			decode(b)
			pos += int64(len(b))
			n -= uint64(len(b))
		}
		return verify(crc, what)
	}

	var secs [5][]byte
	var err error
	for i, sec := range []struct {
		n    uint64
		what string
	}{
		{4 * (nLabels + 1), "label offset"},
		{labelBlobLen, "label blob"},
		{4 * (nUsers + 1), "name offset"},
		{nameBlobLen, "name blob"},
		{8 * (nUsers + 1), "row offset"},
	} {
		if secs[i], err = take(sec.n, sec.what); err != nil {
			return nil, err
		}
	}
	labels, err := decodeStrings(secs[0], secs[1], "label")
	if err != nil {
		return nil, err
	}
	names, err := decodeStrings(secs[2], secs[3], "name")
	if err != nil {
		return nil, err
	}
	rowOffBytes := secs[4]
	off := make([]int, nUsers+1)
	for i := range off {
		v := binary.LittleEndian.Uint64(rowOffBytes[8*i:])
		if v > nLinks {
			return nil, fmt.Errorf("codec: row offset %d exceeds link count %d", v, nLinks)
		}
		off[i] = int(v)
	}
	props := make([]profile.PropertyID, nLinks)
	next := props
	if err := stream(4*nLinks, "property", func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			next[i/4] = profile.PropertyID(binary.LittleEndian.Uint32(b[i:]))
		}
		next = next[len(b)/4:]
	}); err != nil {
		return nil, err
	}
	scores := make([]float64, nLinks)
	rest := scores
	if err := stream(8*nLinks, "score", func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			rest[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
		}
		rest = rest[len(b)/8:]
	}); err != nil {
		return nil, err
	}
	repo, err := profile.FromColumns(labels, names, off, props, scores)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return repo, nil
}

// readAt fills p from r at off; a short read is an error even where r
// reports none.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("codec: %w", err)
}

// decodeStrings slices a string table out of its offset section and blob.
// All strings share one backing allocation.
func decodeStrings(offBytes, blobBytes []byte, what string) ([]string, error) {
	n := len(offBytes)/4 - 1
	blob := string(blobBytes)
	out := make([]string, n)
	prev := binary.LittleEndian.Uint32(offBytes)
	if prev != 0 {
		return nil, fmt.Errorf("codec: %s offsets must start at 0", what)
	}
	for i := 0; i < n; i++ {
		next := binary.LittleEndian.Uint32(offBytes[4*(i+1):])
		if next < prev || next > uint32(len(blob)) {
			return nil, fmt.Errorf("codec: %s offset table not monotone", what)
		}
		out[i] = blob[prev:next]
		prev = next
	}
	if int(prev) != len(blob) {
		return nil, fmt.Errorf("codec: %s blob has %d trailing bytes", what, len(blob)-int(prev))
	}
	return out, nil
}

// WriteImageFile writes the v2 snapshot image to path atomically, through
// durable.WriteFile: the image is fsynced before it replaces path.
func WriteImageFile(path string, repo *profile.Repository) error {
	return durable.WriteFile(path, func(w io.Writer) error { return WriteRepositoryImage(w, repo) })
}

// ReadImageFile loads a v2 snapshot image, streaming the file into its
// columns: the file's bytes are never held whole beside them. This is the
// restart path.
func ReadImageFile(path string) (*profile.Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return readImage(f, st.Size())
}
