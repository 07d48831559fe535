package durability

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scheduler"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways acknowledges an operation only after an fsync that began
	// after its record was written has completed: no acknowledged operation
	// can be lost. Each Store.Commit flushes every op written before it
	// (group commit); a consumer that never commits fsyncs in each Append.
	SyncAlways SyncPolicy = iota
	// SyncInterval batches fsyncs on a timer (Store's SyncInterval): a
	// crash can lose the last interval's acknowledged operations, but
	// appends run at memory speed.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes when it pleases.
	// Survives process crashes (the page cache persists) but not machine
	// crashes.
	SyncNone
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("durability: unknown sync policy %q (want always, interval or none)", s)
	}
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// segmentName returns the file name of the segment whose first record has
// the given global index.
func segmentName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

// parseIndexed extracts the index from "<prefix><20 digits><suffix>".
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 20 {
		return 0, false
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// wal is one open write-ahead log segment. Every field is guarded by the
// Store's mutex; the one thing done outside it is Commit's fsync of f,
// which rotate and close wait out before closing the file.
type wal struct {
	dir string

	f        *os.File
	index    uint64 // global index of the next record to append
	durable  uint64 // records below this index are on stable storage
	segStart uint64 // global index of this segment's first record
	size     int64  // bytes appended to this segment, pending ones included
	payload  []byte // scratch encode buffer
	// pending holds the frames appended since the last write; werr latches
	// a failed write, after which nothing more is written.
	pending []byte
	werr    error
	// write and fsync reach the segment file. Tests replace them to count
	// writes, or to hold a flush open or make it fail; everything else
	// leaves them at (*os.File).Write and (*os.File).Sync.
	write func(*os.File, []byte) (int, error)
	fsync func(*os.File) error
}

// openWALSegment creates (or truncates) the segment starting at first and
// syncs the directory so the file itself survives a crash.
func openWALSegment(dir string, first uint64) (*wal, error) {
	path := filepath.Join(dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durability: open segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &wal{dir: dir, f: f, index: first, durable: first, segStart: first,
		write: (*os.File).Write, fsync: (*os.File).Sync}, nil
}

// append encodes one record frame onto the pending frames. It neither
// writes nor flushes: the Store decides when the record must reach the
// segment and when stable storage.
func (w *wal) append(op scheduler.Op) {
	w.payload = appendOp(w.payload[:0], op)
	n := len(w.pending)
	w.pending = appendFrame(w.pending, w.payload)
	w.size += int64(len(w.pending) - n)
	w.index++
}

// writePending hands every pending frame to the segment in one write.
func (w *wal) writePending() error {
	if w.werr != nil || len(w.pending) == 0 {
		return w.werr
	}
	if _, err := w.write(w.f, w.pending); err != nil {
		w.werr = fmt.Errorf("durability: write records below %d: %w", w.index, err)
		return w.werr
	}
	w.pending = w.pending[:0]
	if cap(w.pending) > keepPending {
		w.pending = nil
	}
	return nil
}

// keepPending is the largest pending buffer kept between writes.
const keepPending = 1 << 20

// syncFile flushes f, the open segment file as the caller read it under
// the Store's mutex. It touches no other field, so Commit may call it with
// the mutex released.
func (w *wal) syncFile(f *os.File) error {
	if err := w.fsync(f); err != nil {
		return fmt.Errorf("durability: fsync %s: %w", f.Name(), err)
	}
	return nil
}

// rotate closes the current segment, whose records the caller has already
// made durable, and opens a fresh one at the current index, so a snapshot
// covering everything before it can truncate the log by whole files.
func (w *wal) rotate() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durability: close segment: %w", err)
	}
	nw, err := openWALSegment(w.dir, w.index)
	if err != nil {
		return err
	}
	w.f, w.segStart, w.size = nw.f, nw.segStart, nw.size
	return nil
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durability: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durability: fsync dir %s: %w", dir, err)
	}
	return nil
}

// segmentFile pairs a segment path with the global index of its first
// record.
type segmentFile struct {
	path  string
	first uint64
}

// scanDir lists a WAL directory's segments (sorted by first index) and
// snapshots (sorted by covered index), removing leftover temporary files
// from an interrupted snapshot write.
func scanDir(dir string) (segs []segmentFile, snaps []segmentFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durability: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-snapshot leaves a temp file; it was never
			// renamed into place, so it holds nothing durable.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if first, ok := parseIndexed(name, segPrefix, segSuffix); ok {
			segs = append(segs, segmentFile{path: filepath.Join(dir, name), first: first})
		} else if idx, ok := parseIndexed(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, segmentFile{path: filepath.Join(dir, name), first: idx})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].first < snaps[j].first })
	return segs, snaps, nil
}
