// Package durable owns the two on-disk mechanisms the repository's
// persistent files share, so each is written, fsynced and crash-tested in one
// place:
//
//   - WriteFile replaces a whole file atomically. The snapshot image and
//     journal compaction go through it.
//   - Journal is an append-only file of checksummed records. The repository
//     log (internal/repolog) and the campaign WAL (internal/campaign) are
//     journals that differ only in their magic, their record cap and what
//     their records mean.
//
// Journal layout:
//
//	magic | format version (1 byte) | record*
//	record := kind (1 byte) | uvarint len | payload | crc32(kind‖payload) (4 bytes LE)
//
// Replay follows write-ahead-log convention. A record that is cut short,
// fails its checksum, or declares a length over the cap or past the end of
// the file is a torn tail — the signature of a crash mid-append. Open
// truncates the tail and reports its size; Read, which never writes, stops
// there. Either way every record before it is replayed.
package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with what write produces. write gets a
// buffered writer over a temp file beside path; the temp file is flushed,
// fsynced, closed and renamed over path, and then the directory is fsynced so
// the rename survives a crash. On failure the temp file is removed and path
// is left as it was. An error from write is returned as is.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs dir so that an entry just created or renamed in it survives
// a crash. Failing to open the directory is an error; its Sync is best
// effort, since some platforms cannot fsync a directory.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: opening dir for sync: %w", err)
	}
	d.Sync()
	return d.Close()
}

// Journal is an open record journal. It is not safe for concurrent use.
type Journal struct {
	path      string
	header    []byte // magic, then the version byte
	maxRecord int
	f         *os.File
	w         *bufio.Writer
	// Recovered is how many trailing bytes Open dropped as a torn tail.
	Recovered int64
}

// Open opens the journal at path, creating it when absent, and hands every
// intact record to replay in file order; an error from replay aborts Open and
// is returned as is. A torn tail is truncated and counted in Recovered. When
// Open writes the header (the file was new or empty) it fsyncs the file and
// its directory before returning, so a crash cannot lose a journal that
// appends were acknowledged to. A record over maxRecord bytes is refused by
// Append and Replace and read as torn by replay.
func Open(path, magic string, version byte, maxRecord int, replay func(kind byte, payload []byte) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	j := &Journal{path: path, header: append([]byte(magic), version), maxRecord: maxRecord, f: f}
	if err := j.replay(replay); err != nil {
		f.Close()
		return nil, err
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

func (j *Journal) replay(fn func(kind byte, payload []byte) error) error {
	size, valid, err := replayFile(j.f, j.path, j.header, j.maxRecord, fn)
	if err != nil {
		return err
	}
	if size == 0 {
		if _, err := j.f.Write(j.header); err != nil {
			return fmt.Errorf("durable: writing header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("durable: syncing new journal: %w", err)
		}
		return syncDir(filepath.Dir(j.path))
	}
	if valid < size {
		j.Recovered = size - valid
		if err := j.f.Truncate(valid); err != nil {
			return fmt.Errorf("durable: truncating torn tail: %w", err)
		}
	}
	if _, err := j.f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Read hands every intact record of the journal at path to replay, in file
// order, without writing to the file: it never creates, truncates or syncs
// it, so a reader may replay a journal that a writer is appending to. What
// follows the last intact record, a torn tail or an append still in flight,
// is not replayed. An empty file holds no records.
func Read(path, magic string, version byte, maxRecord int, replay func(kind byte, payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	_, _, err = replayFile(f, path, append([]byte(magic), version), maxRecord, replay)
	return err
}

// replayFile is the record loop Open and Read share. It checks the header of
// the journal in f and hands each intact record to fn, and it returns the
// file's size and the length of its intact prefix: the header and every
// record up to the first torn one. An empty file has neither.
func replayFile(f *os.File, path string, header []byte, maxRecord int, fn func(kind byte, payload []byte) error) (size, valid int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("durable: %w", err)
	}
	size = info.Size()
	if size == 0 {
		return 0, 0, nil
	}
	r := bufio.NewReader(f)
	head := make([]byte, len(header))
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, 0, fmt.Errorf("durable: %s: reading header: %w", path, err)
	}
	magic := len(head) - 1
	if string(head[:magic]) != string(header[:magic]) {
		return 0, 0, fmt.Errorf("durable: %s is not a %s journal", path, header[:magic])
	}
	if head[magic] != header[magic] {
		return 0, 0, fmt.Errorf("durable: %s: unsupported %s version %d", path, header[:magic], head[magic])
	}
	// The file ends cleanly only where a record ends; any short read past
	// that point, including one right after a kind byte, is a torn tail.
	valid = int64(len(head))
	for valid < size {
		kind, payload, n, ok := readRecord(r, size-valid, maxRecord)
		if !ok {
			break
		}
		if err := fn(kind, payload); err != nil {
			return 0, 0, err
		}
		valid += n
	}
	return size, valid, nil
}

// readRecord reads one record from r, which holds the file's last remain
// bytes, and reports its size; ok is false for a torn or corrupt record. The
// declared length is checked against the cap and against remain before the
// payload is allocated, so a torn length costs nothing however large it is.
func readRecord(r *bufio.Reader, remain int64, maxRecord int) (kind byte, payload []byte, n int64, ok bool) {
	kind, err := r.ReadByte()
	if err != nil {
		return 0, nil, 0, false
	}
	plen, lenBytes, ok := readUvarint(r)
	if !ok || plen > uint64(maxRecord) {
		return 0, nil, 0, false
	}
	n = 1 + int64(lenBytes) + int64(plen) + crc32.Size
	if n > remain {
		return 0, nil, 0, false
	}
	payload = make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, false
	}
	var sum [crc32.Size]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, 0, false
	}
	if binary.LittleEndian.Uint32(sum[:]) != checksum(kind, payload) {
		return 0, nil, 0, false
	}
	return kind, payload, n, true
}

// readUvarint reads a uvarint and reports how many bytes it took, so a
// record's size counts its length bytes as written, canonical or not. ok is
// false when the bytes run out or the value overflows.
func readUvarint(r io.ByteReader) (v uint64, n int, ok bool) {
	for n < binary.MaxVarintLen64 {
		b, err := r.ReadByte()
		if err != nil {
			return 0, n, false
		}
		v |= uint64(b&0x7f) << (7 * n)
		n++
		if b < 0x80 {
			return v, n, true
		}
	}
	return 0, n, false
}

func checksum(kind byte, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, payload)
}

// writeRecord frames one record onto w.
func writeRecord(w io.Writer, kind byte, payload []byte) error {
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = kind
	hn := 1 + binary.PutUvarint(head[1:], uint64(len(payload)))
	var sum [crc32.Size]byte
	binary.LittleEndian.PutUint32(sum[:], checksum(kind, payload))
	for _, b := range [][]byte{head[:hn], payload, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
	}
	return nil
}

func (j *Journal) checkLen(payload []byte) error {
	if len(payload) > j.maxRecord {
		return fmt.Errorf("durable: record of %d bytes exceeds the %s limit of %d", len(payload), j.header[:len(j.header)-1], j.maxRecord)
	}
	return nil
}

// Append stages one record in the write buffer. It becomes durable at the
// next Sync or Close.
func (j *Journal) Append(kind byte, payload []byte) error {
	if err := j.checkLen(payload); err != nil {
		return err
	}
	return writeRecord(j.w, kind, payload)
}

// Sync flushes staged records and fsyncs the file.
func (j *Journal) Sync() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Record is one journal record: its kind and its payload.
type Record struct {
	Kind    byte
	Payload []byte
}

// Replace rewrites the journal as its header and recs, through WriteFile —
// compaction. Staged records are synced to the old file first, so a crash at
// any point leaves the old journal complete or the new one in its place.
// Appends continue on the new file.
func (j *Journal) Replace(recs ...Record) error {
	for _, r := range recs {
		if err := j.checkLen(r.Payload); err != nil {
			return err
		}
	}
	if err := j.Sync(); err != nil {
		return err
	}
	err := WriteFile(j.path, func(w io.Writer) error {
		if _, err := w.Write(j.header); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		for _, r := range recs {
			if err := writeRecord(w, r.Kind, r.Payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: reopening after compaction: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	j.f.Close()
	j.f = f
	j.w.Reset(f)
	return nil
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	err := j.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
