package durerr

import (
	"errors"
	"os"
)

// appendRecord shows the discarded-error forms on a WAL-style write path.
func appendRecord(f *os.File, b []byte) error {
	f.Write(b)   // want "Write error discarded on a durability path"
	_ = f.Sync() // want "Sync error explicitly discarded on a durability path"
	f.Close()    // want "Close error discarded on a durability path"
	return nil
}

// blankWrite drops only the error position of a two-value Write.
func blankWrite(f *os.File, b []byte) int {
	n, _ := f.Write(b) // want "Write error explicitly discarded on a durability path"
	return n
}

// publish covers the rename-into-place step.
func publish(tmp, final string) {
	os.Rename(tmp, final) // want "Rename error discarded on a durability path"
}

// deferredSync is still a loss: the deferred call's error vanishes.
func deferredSync(f *os.File) {
	defer f.Sync() // want "deferred Sync discards its error on a durability path"
}

// store stands in for the WAL store's commit barrier.
type store struct{}

func (store) Commit() error { return nil }

// ackWithoutCommit acknowledges ops whose covering flush may have failed.
func ackWithoutCommit(s store) {
	s.Commit()       // want "Commit error discarded on a durability path"
	_ = s.Commit()   // want "Commit error explicitly discarded on a durability path"
	defer s.Commit() // want "deferred Commit discards its error on a durability path"
}

// ackAfterCommit is the discipline: no acknowledgement past a failed commit.
func ackAfterCommit(s store, ack func()) error {
	if err := s.Commit(); err != nil {
		return err
	}
	ack()
	return nil
}

// readSide is the idiomatic read-path cleanup: a deferred Close carries
// no durability signal and is permitted.
func readSide(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	return buf[:n], err
}

// handled is the discipline the analyzer wants.
func handled(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// sanctioned drops a Close error with a documented reason.
func sanctioned(f *os.File) {
	//lint:allow durerr read-only probe handle; no buffered writes to lose
	f.Close()
}
