package durability

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scheduler"
)

// ErrReplay marks a journaled operation that failed to re-apply during
// recovery. Ops are validated before they are journaled and the core is
// deterministic, so this means the journal and the state it is being
// replayed into do not belong together.
var ErrReplay = errors.New("durability: journal replay diverged")

// ErrFailed marks a store that stopped after a write or fsync error. The
// failing op's bytes may or may not be on disk and, once the commit is
// deferred, the op is already applied in memory, so nothing after it can be
// acknowledged: every in-flight and later Append and Commit returns an
// error wrapping ErrFailed, and the process must exit and recover from what
// the disk holds. The store never retries a failed flush (after a failed
// fsync the kernel may have dropped the dirty pages; a second fsync that
// succeeds proves nothing).
var ErrFailed = errors.New("durability: store failed")

var errClosed = errors.New("durability: store closed")

// Options configures a Store.
type Options struct {
	// SnapshotEvery takes a state snapshot (and truncates the log) each
	// time this many records accumulate past the previous snapshot.
	// 0 disables automatic snapshots.
	SnapshotEvery uint64
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 100ms).
	SyncInterval time.Duration
	// Capture produces the scheduler image and the watch-event sequence
	// number for a snapshot. It is called synchronously from inside
	// Append — i.e. from the journal hook, before the triggering op has
	// mutated anything — so the captured state is exactly the applied
	// record prefix. Required for snapshots.
	Capture func() (*scheduler.CoreState, uint64)
	// Logf receives non-fatal notices (skipped corrupt snapshots, failed
	// cleanup). Defaults to discarding them.
	Logf func(format string, args ...any)
}

// Store is an open WAL directory: the append side of the journal, the
// commit barrier behind it and the snapshot machinery. The scheduler
// Server's apply goroutine calls Append (its journal hook) with the server
// lock held, and its committer calls Commit while the apply goroutine goes
// on appending; the Store's mutex orders both against each other, the
// background sync loop and explicit Snapshot calls. The one thing done
// outside the mutex is Commit's fsync.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	w    *wal
	// lastSnap is the covered-record index of the newest durable snapshot.
	lastSnap uint64
	closed   bool
	stop     chan struct{}
	loopDone chan struct{}

	// syncing counts the Commit fsyncs running outside mu; synced is
	// signalled when it drops to zero. Rotation and Close wait for that
	// before they close the file.
	syncing int
	synced  *sync.Cond
	// committing is set by the first Commit call: the consumer has shown it
	// commits itself, so Append stops writing and flushing inline.
	committing bool
	// failed latches the first write or fsync error, wrapped in ErrFailed;
	// failedCh is closed when it is set.
	failed   error
	failedCh chan struct{}

	appends, syncs, maxBatch atomic.Uint64
}

// Stats counts the store's journal traffic since Open.
type Stats struct {
	// Appends is the number of records written.
	Appends uint64
	// Syncs is the number of fsyncs that made at least one record durable.
	Syncs uint64
	// MaxBatch is the most records a single fsync made durable.
	MaxBatch uint64
}

// Stats returns the counters. Appends/Syncs is the mean group-commit batch.
func (s *Store) Stats() Stats {
	return Stats{Appends: s.appends.Load(), Syncs: s.syncs.Load(), MaxBatch: s.maxBatch.Load()}
}

// Recovery is everything Open found in the directory: the newest valid
// snapshot (nil at genesis) and the journaled tail to replay after it.
type Recovery struct {
	// State is the snapshot image, nil when recovering from genesis.
	State *scheduler.CoreState
	// Ops is the journaled tail in append order.
	Ops []scheduler.Op
	// TornTail reports that a torn final record was discarded — the
	// signature of a crash mid-append. The truncated op was never
	// acknowledged, so discarding it is correct, not lossy.
	TornTail bool

	seq   uint64  // watch-event seq at the snapshot
	clock float64 // scheduler clock at the snapshot
	store *Store  // the store Open returned beside this recovery
}

// RestoreInfo summarizes a completed recovery.
type RestoreInfo struct {
	// Recovered is false for a genesis boot of an empty directory.
	Recovered bool
	// Jobs is the number of jobs known after recovery (any state).
	Jobs int
	// Replayed is the number of journal records re-applied.
	Replayed int
	// Seq is the watch-event sequence number the recovered Server must
	// resume from (scheduler.NewServerRecovered).
	Seq uint64
	// Clock is the last recovered scheduler timestamp; the recovered
	// Server's clock resumes past it.
	Clock float64
}

// Open recovers a WAL directory (creating it if needed) and readies it
// for appends. The returned Recovery holds the snapshot and tail to
// replay — apply them via Restore *before* installing the store as the
// core's journal hook, or the replay would be journaled twice.
//
// New appends always go to a fresh segment starting at the recovered
// record index, so a truncated torn tail can never be appended onto.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durability: create %s: %w", dir, err)
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovery{}
	var snapIndex uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		blob, err := readSnapshot(snaps[i].path)
		if err != nil {
			// A snapshot is published atomically, so damage here is disk
			// rot, not a crash artifact; older snapshots plus their
			// retained segments still recover, losing nothing.
			opts.Logf("durability: skipping snapshot %s: %v", snaps[i].path, err)
			continue
		}
		rec.State = blob.State
		rec.seq = blob.Seq
		rec.clock = blob.Clock
		snapIndex = blob.Index
		break
	}

	index := snapIndex
	for i, seg := range segs {
		if seg.first < snapIndex {
			continue // covered by the snapshot; removed on the next truncation
		}
		if seg.first != index {
			return nil, nil, fmt.Errorf("%w: segment %s starts at record %d, want %d",
				ErrCorrupt, seg.path, seg.first, index)
		}
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, nil, fmt.Errorf("durability: read segment: %w", err)
		}
		ops, good, derr := decodeFrames(b)
		if derr != nil {
			if !errors.Is(derr, ErrTornTail) || i != len(segs)-1 {
				// Torn tails can only exist where writing stopped: the
				// final segment. Anything else is real corruption.
				return nil, nil, fmt.Errorf("segment %s: %w", seg.path, derr)
			}
			opts.Logf("durability: discarding torn tail of %s (%d intact bytes): %v", seg.path, good, derr)
			if terr := os.Truncate(seg.path, int64(good)); terr != nil {
				return nil, nil, fmt.Errorf("durability: truncate torn tail: %w", terr)
			}
			rec.TornTail = true
		}
		rec.Ops = append(rec.Ops, ops...)
		index += uint64(len(ops))
	}

	w, err := openWALSegment(dir, index)
	if err != nil {
		return nil, nil, err
	}
	st := &Store{dir: dir, opts: opts, w: w, lastSnap: snapIndex, failedCh: make(chan struct{})}
	st.synced = sync.NewCond(&st.mu)
	rec.store = st
	if opts.Sync == SyncInterval {
		st.stop = make(chan struct{})
		st.loopDone = make(chan struct{})
		go st.syncLoop()
	}
	return st, rec, nil
}

// Restore builds the recovered core: build receives the snapshot state
// (nil at genesis) and returns a core configured with its policy/arbiter
// — configuration is not journaled, so recovery must install the same
// arbitration the crashed process ran, or the replayed decisions could
// diverge. Restore then re-applies the journaled tail. Install the
// store's Append as the core's journal hook only after Restore returns.
//
// The returned core also carries the store's Commit as its commit barrier
// (scheduler.Core.SetCommit), which a scheduler.Server built on the core
// picks up: the Server's committer then writes and flushes behind its
// apply goroutine instead of Append doing so under the server lock.
func (r *Recovery) Restore(build func(st *scheduler.CoreState) (*scheduler.Core, error)) (*scheduler.Core, RestoreInfo, error) {
	core, err := build(r.State)
	if err != nil {
		return nil, RestoreInfo{}, err
	}
	info := RestoreInfo{
		Recovered: r.State != nil || len(r.Ops) > 0,
		Seq:       r.seq,
		Clock:     r.clock,
	}
	for i, op := range r.Ops {
		if err := core.Apply(op); err != nil {
			return nil, info, fmt.Errorf("%w: record %d (%s at t=%.3f): %v", ErrReplay, i, op.Kind, op.Now, err)
		}
		if op.Now > info.Clock {
			info.Clock = op.Now
		}
	}
	info.Replayed = len(r.Ops)
	// Replayed ops re-recorded their allocation events on the fresh trace;
	// the original server published exactly those events after the
	// snapshot, so the recovered sequence number is the snapshot's plus
	// the replayed trace length.
	info.Seq = r.seq + uint64(core.EventCount())
	info.Jobs = len(core.Jobs())
	if r.store != nil {
		core.SetCommit(r.store.Commit)
	}
	return core, info, nil
}

// Append journals one scheduler op; it is the scheduler.JournalFunc a
// recovered (or fresh) core installs. When the configured snapshot cadence
// is reached it first captures a snapshot — the op being appended is the
// first record of the new log generation.
//
// Until the store's consumer has called Commit, Append writes the record
// and, under SyncAlways, returns with it on stable storage, one fsync per
// call. From then on it only encodes the record onto the pending frames,
// and Commit writes them and waits for the flush.
func (s *Store) Append(op scheduler.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if s.opts.SnapshotEvery > 0 && s.opts.Capture != nil &&
		s.w.index-s.lastSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(op.Now); err != nil {
			if s.failed != nil {
				return s.failed
			}
			// Snapshot failure (disk pressure, say) must not refuse the
			// op: the log simply keeps growing until a snapshot succeeds.
			s.opts.Logf("durability: snapshot at record %d failed: %v", s.w.index, err)
		}
	}
	s.w.append(op)
	s.appends.Add(1)
	switch {
	case s.committing:
		return nil
	case s.opts.Sync == SyncAlways:
		return s.syncLocked()
	default:
		return s.writeLocked()
	}
}

// Commit blocks until every record appended before the call is on stable
// storage: the second half of a durable write, which the scheduler
// Server's committer calls before it publishes or acknowledges anything the
// ops produced. It is the scheduler.CommitFunc Restore installs. Each call
// writes every pending frame in one write, so under every sync policy a
// committed record is at least in the page cache.
//
// Under SyncAlways the call then flushes the segment with the mutex
// released (appends continue behind it) and marks every record it found
// written durable. Concurrent callers stay correct, each waiting for an
// fsync that began after its records were written, but they do not share
// one: batching is the Server's, whose one committer covers everything
// appended since its last call with one write and at most one fsync.
//
// Under SyncInterval and SyncNone durability is not part of the
// acknowledgement, and Commit writes the pending frames and flushes
// nothing.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.committing = true
	if s.opts.Sync != SyncAlways {
		return s.writeLocked()
	}
	if s.failed != nil || s.w.durable >= s.w.index {
		return s.failed
	}
	if err := s.writeLocked(); err != nil {
		return err
	}
	// Rotation and Close wait for syncing to reach zero before they close
	// the file, so f stays open until the flush below returns.
	cover, f := s.w.index, s.w.f
	s.syncing++
	s.mu.Unlock()
	err := s.w.syncFile(f)
	s.mu.Lock()
	if s.syncing--; s.syncing == 0 {
		s.synced.Broadcast()
	}
	if err != nil {
		return s.failLocked(err)
	}
	// A flush that failed meanwhile makes this one prove nothing.
	if s.failed == nil {
		s.markDurableLocked(cover)
	}
	return s.failed
}

// usableLocked reports why the store can take no more records, if it cannot.
func (s *Store) usableLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if s.closed {
		return errClosed
	}
	return nil
}

// failLocked latches the store's first write or fsync error.
func (s *Store) failLocked(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("%w: %w", ErrFailed, err)
		close(s.failedCh)
		s.opts.Logf("%v", s.failed)
	}
	return s.failed
}

// markDurableLocked records that every record below cover has been flushed.
func (s *Store) markDurableLocked(cover uint64) {
	if cover > s.w.durable {
		batch := cover - s.w.durable
		s.w.durable = cover
		s.syncs.Add(1)
		if batch > s.maxBatch.Load() {
			s.maxBatch.Store(batch)
		}
	}
}

// writeLocked writes the pending frames. A store whose flush failed still
// writes the records it accepted before, as it did when each was written at
// once; after a failed write nothing more is written.
func (s *Store) writeLocked() error {
	if err := s.w.writePending(); err != nil {
		return s.failLocked(err)
	}
	return s.failed
}

// syncLocked writes the pending frames and flushes every written record
// with the mutex held.
func (s *Store) syncLocked() error {
	if err := s.writeLocked(); err != nil || s.w.durable == s.w.index {
		return err
	}
	cover := s.w.index
	if err := s.w.syncFile(s.w.f); err != nil {
		return s.failLocked(err)
	}
	s.markDurableLocked(cover)
	return nil
}

// quiesceLocked waits out every in-flight Commit fsync: the segment file
// must not be closed under one.
func (s *Store) quiesceLocked() {
	for s.syncing > 0 {
		s.synced.Wait()
	}
}

// Failed returns a channel that is closed when the store fails (see
// ErrFailed); Err then returns the cause.
func (s *Store) Failed() <-chan struct{} { return s.failedCh }

// Err returns the error that failed the store, or nil.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Snapshot takes a snapshot immediately, recording clock as the scheduler
// time it covers. Callers must ensure the capture runs quiesced — either
// from within the journal hook's call chain or with the owning server
// idle.
func (s *Store) Snapshot(clock float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if s.opts.Capture == nil {
		return fmt.Errorf("durability: no Capture configured")
	}
	return s.snapshotLocked(clock)
}

// snapshotLocked rotates the log and publishes a snapshot covering every
// record before the rotation point, then deletes the superseded files. The
// old segment is flushed before it is closed, so every record before the
// rotation point is durable (and every commit waiting on one is released)
// by the time the new generation starts.
func (s *Store) snapshotLocked(clock float64) error {
	s.quiesceLocked()
	if err := s.syncLocked(); err != nil {
		return err
	}
	state, seq := s.opts.Capture()
	idx := s.w.index
	if err := s.w.rotate(); err != nil {
		return err
	}
	if _, err := writeSnapshot(s.dir, &snapshotBlob{Index: idx, Seq: seq, Clock: clock, State: state}); err != nil {
		return err
	}
	s.lastSnap = idx
	s.truncateObsolete()
	return nil
}

// truncateObsolete trims the directory after a successful snapshot. The
// newest TWO snapshots are retained, along with every segment the older of
// the two still needs: if disk rot ever invalidates the newest snapshot,
// recovery falls back one generation instead of facing an orphaned log.
// Failures are only logged: stale files cost disk, not correctness.
func (s *Store) truncateObsolete() {
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		s.opts.Logf("durability: truncation scan failed: %v", err)
		return
	}
	if len(snaps) < 2 {
		return
	}
	keep := snaps[len(snaps)-2].first
	for _, seg := range segs {
		if seg.first < keep {
			if err := os.Remove(seg.path); err != nil {
				s.opts.Logf("durability: remove %s: %v", seg.path, err)
			}
		}
	}
	for _, sn := range snaps[:len(snaps)-2] {
		if err := os.Remove(sn.path); err != nil {
			s.opts.Logf("durability: remove %s: %v", sn.path, err)
		}
	}
}

// Sync flushes outstanding appends to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// Index returns the global index of the next record to append.
func (s *Store) Index() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.index
}

// Close flushes and closes the log. Further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.quiesceLocked()
	err := s.syncLocked()
	if cerr := s.w.f.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("durability: close segment: %w", cerr))
	}
	s.mu.Unlock()
	if s.stop != nil {
		close(s.stop)
		<-s.loopDone
	}
	return err
}

// syncLoop batches fsyncs under SyncInterval.
func (s *Store) syncLoop() {
	defer close(s.loopDone)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				// A failure is latched and logged by syncLocked.
				_ = s.syncLocked()
			}
			s.mu.Unlock()
		}
	}
}
