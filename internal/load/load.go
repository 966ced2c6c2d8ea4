// Package load opens profile repositories from disk, auto-detecting the
// storage format by magic bytes: "PLOG" repository logs (internal/repolog),
// "PODM" binary files (internal/codec — plain repositories or full
// datasets), and JSON (the interchange format) as the fallback. The CLI
// tools and server use it so every on-disk format works with every -in flag.
// Loading never writes: a repository log may be read while a server appends
// to it.
package load

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"podium/internal/bucketing"
	"podium/internal/codec"
	"podium/internal/opinions"
	"podium/internal/profile"
	"podium/internal/repolog"
)

// Repository opens the repository stored at path in any supported format.
// Dataset files (repository + reviews) yield just their repository; use
// Dataset to get both. For a repository log, cuts are the bucket cuts its
// boundaries records committed, the ones its writer's index assigned scores
// with; a caller pins groups.Config.FixedBuckets to them to build that
// index's groups. Other formats carry no cuts (nil).
func Repository(path string) (repo *profile.Repository, cuts map[profile.PropertyID][]bucketing.Bucket, err error) {
	repo, _, cuts, err = open(path, false)
	return repo, cuts, err
}

// Dataset opens a repository and, when the file carries them, its
// ground-truth reviews. The store is nil for formats without review data
// (JSON, repository logs, plain binary repositories).
func Dataset(path string) (*profile.Repository, *opinions.Store, error) {
	repo, store, _, err := open(path, true)
	return repo, store, err
}

func open(path string, wantStore bool) (*profile.Repository, *opinions.Store, map[profile.PropertyID][]bucketing.Bucket, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("load: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(6)
	if err != nil && err != io.EOF {
		return nil, nil, nil, fmt.Errorf("load: %w", err)
	}
	switch {
	case bytes.HasPrefix(head, []byte("PLOG")):
		// Repository log: replayed read-only, so loading a log beside the
		// server appending to it never truncates or syncs the writer's file.
		repo, cuts, err := repolog.Read(path)
		return repo, nil, cuts, err
	case bytes.HasPrefix(head, []byte("PODM")):
		// Binary codec: the 5th byte is the format version, the 6th the
		// section tag. Format-v2 snapshot images take the bulk-read path —
		// sections streamed into their columns, then one validation pass,
		// instead of a value-by-value decode.
		if len(head) >= 5 && head[4] == 2 {
			repo, err := codec.ReadImageFile(path)
			return repo, nil, nil, err
		}
		if len(head) >= 6 && head[5] == 2 {
			repo, store, err := codec.ReadDataset(br)
			if err != nil {
				return nil, nil, nil, err
			}
			if !wantStore {
				store = nil
			}
			return repo, store, nil, nil
		}
		repo, err := codec.ReadRepository(br)
		return repo, nil, nil, err
	default:
		repo, err := profile.ReadJSON(br)
		return repo, nil, nil, err
	}
}
