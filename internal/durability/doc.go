// Package durability makes the ReSHAPE control plane restartable: it
// journals every scheduler input to a length-prefixed, checksummed
// write-ahead log, persists periodic snapshots of the scheduler state
// machine (with log truncation), and replays both on startup so a crashed
// or restarted reshaped daemon resumes with every queued and running job
// intact.
//
// The design leans entirely on the determinism of the scheduler core
// (internal/scheduler): a Core is a deterministic state machine over five
// input operations, so recovery is "restore the newest snapshot, then
// re-apply the journaled tail" — and recovery *correctness* is testable by
// replaying identical traces and requiring bit-identical state, not argued
// informally.
//
// Layout of a WAL directory:
//
//	wal-00000000000000000000.log   records [0, n) — one frame per op
//	wal-00000000000000001000.log   records [1000, …) after a snapshot
//	snap-00000000000000001000.snap state covering records [0, 1000)
//
// Each log frame is
//
//	uvarint payload-length | uint32 CRC32C(payload) LE | payload
//
// and each payload is one scheduler.Op in a compact self-contained binary
// encoding (no per-stream codec state, so any suffix of a log replays
// after a snapshot). A torn final frame — the signature of a crash mid
// append — is detected by the length prefix or checksum and safely
// discarded; corruption anywhere earlier is refused with a typed error
// rather than silently skipped.
//
// Ordering is write-ahead: the scheduler journals each validated input
// before applying it (see scheduler.SetJournal), and an operation is
// acknowledged only after both — under SyncAlways, only after an fsync that
// covers its record. A crash therefore loses at most inputs that were never
// acknowledged; everything acknowledged replays.
//
// A durable write has two halves. Append encodes the record onto the
// pending frames; the scheduler Server's apply goroutine calls it through
// the journal hook with the server lock held. Commit writes every pending
// frame in one write and waits until they are flushed; the Server's
// committer calls it, while the apply goroutine goes on applying, before
// it publishes or acknowledges anything. One commit covers every op
// applied since the last (group commit), so many concurrent operations
// cost one write and one fsync and a lone one still costs one. A write or
// flush error stops the store for good (ErrFailed).
package durability
