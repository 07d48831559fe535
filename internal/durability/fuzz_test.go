package durability

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// fuzzSeedCorpus returns byte images worth mutating: valid payloads and
// frames for every op kind, plus classic damage shapes.
func fuzzSeedCorpus() [][]byte {
	var seeds [][]byte
	var log []byte
	for _, op := range sampleOps() {
		payload := appendOp(nil, op)
		seeds = append(seeds, payload)
		log = appendFrame(log, payload)
	}
	seeds = append(seeds,
		nil,
		[]byte{0x00},
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // huge uvarint
		log,              // whole multi-record segment
		log[:len(log)-3], // torn tail
	)
	return seeds
}

// FuzzDecodeOp feeds arbitrary bytes to the payload decoder: it must never
// panic, and must either fail with ErrBadRecord or produce an op that
// re-encodes and decodes to the same value.
func FuzzDecodeOp(f *testing.F) {
	for _, s := range fuzzSeedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, err := decodeOp(payload)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decodeOp returned untyped error %v", err)
			}
			return
		}
		// Accepted payloads must re-encode losslessly. (The byte image may
		// differ — varints admit overlong encodings — but the value must
		// survive a round trip through the canonical encoder.)
		re := appendOp(nil, op)
		op2, err := decodeOp(re)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if !bytes.Equal(re, appendOp(nil, op2)) {
			t.Fatalf("round trip diverged:\n first %+v\n  second %+v", op, op2)
		}
	})
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot-payload
// decoder: like decodeOp it must never panic and either fail typed or
// produce a blob that round-trips through the canonical encoder.
func FuzzDecodeSnapshot(f *testing.F) {
	core := scheduler.NewCore(8, true)
	spec := scheduler.JobSpec{
		Name: "j", App: "jacobi", ProblemSize: 4000, Iterations: 10,
		InitialTopo: grid.Topology{Rows: 2, Cols: 2},
		Chain:       []grid.Topology{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}},
	}
	for i := 0; i < 3; i++ {
		if _, _, err := core.Submit(spec, float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := core.Contact(0, grid.Topology{Rows: 2, Cols: 2}, 1.5, 0, 10); err != nil {
		f.Fatal(err)
	}
	f.Add(appendSnapshot(nil, &snapshotBlob{Index: 4, Seq: 9, Clock: 10, State: core.PersistState()}))
	f.Add(appendSnapshot(nil, &snapshotBlob{State: &scheduler.CoreState{Total: 1}}))
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob, err := decodeSnapshot(payload)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decodeSnapshot returned untyped error %v", err)
			}
			return
		}
		re := appendSnapshot(nil, blob)
		blob2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if !bytes.Equal(re, appendSnapshot(nil, blob2)) {
			t.Fatal("snapshot round trip diverged")
		}
	})
}

// FuzzDecodeFrames feeds arbitrary segment images to the frame reader: it
// must never panic, always return one of the three typed errors (or nil),
// and report a good-prefix length that really is a clean parse boundary.
func FuzzDecodeFrames(f *testing.F) {
	for _, s := range fuzzSeedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, good, err := decodeFrames(b)
		if good < 0 || good > len(b) {
			t.Fatalf("good prefix %d out of bounds (len %d)", good, len(b))
		}
		if err != nil {
			if !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decodeFrames returned untyped error %v", err)
			}
		} else if good != len(b) {
			t.Fatalf("clean parse stopped at %d of %d bytes", good, len(b))
		}
		if errors.Is(err, ErrTornTail) {
			// The contract behind crash recovery: truncating to the good
			// prefix yields a log that parses cleanly with the same records.
			ops2, good2, err2 := decodeFrames(b[:good])
			if err2 != nil || good2 != good || len(ops2) != len(ops) {
				t.Fatalf("torn-tail truncation not clean: err=%v good=%d/%d ops=%d/%d",
					err2, good2, good, len(ops2), len(ops))
			}
		}
	})
}
