package durability

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// sampleOps covers every op kind with awkward values (zero, negative id,
// empty strings, long chains).
func sampleOps() []scheduler.Op {
	return []scheduler.Op{
		{Kind: scheduler.OpSubmit, Now: 0, Spec: scheduler.JobSpec{
			Name: "LU", App: "lu", ProblemSize: 21000, BlockSize: 120, Iterations: 10,
			Priority: 2, InitialTopo: grid.Topology{Rows: 2, Cols: 3},
			Chain: []grid.Topology{{Rows: 2, Cols: 3}, {Rows: 3, Cols: 3}, {Rows: 4, Cols: 4}},
		}},
		{Kind: scheduler.OpSubmit, Now: 1.25, Spec: scheduler.JobSpec{Name: "", App: "", InitialTopo: grid.Row1D(1)}},
		{Kind: scheduler.OpContact, Now: 450.75, JobID: 3, Topo: grid.Topology{Rows: 5, Cols: 2}, IterTime: 12.625, RedistTime: 0.5},
		{Kind: scheduler.OpResizeComplete, Now: 451.5, JobID: 3, RedistTime: 2.25},
		{Kind: scheduler.OpFinish, Now: 900, JobID: 0},
		{Kind: scheduler.OpFail, Now: 1e9, JobID: 1 << 20},
		{Kind: scheduler.OpRebalance, Now: 1234.5},
	}
}

// TestRecordRoundTrip drives every op kind through the binary record codec.
func TestRecordRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		payload := appendOp(nil, op)
		got, err := decodeOp(payload)
		if err != nil {
			t.Fatalf("decode %s: %v", op.Kind, err)
		}
		if !reflect.DeepEqual(op, got) {
			t.Fatalf("round trip %s:\n want %+v\n  got %+v", op.Kind, op, got)
		}
	}
}

// TestStoreRoundTrip appends ops through a Store, closes it, and reopens:
// the recovery tail must be exactly the appended sequence, in order.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != nil || len(rec.Ops) != 0 || rec.TornTail {
		t.Fatalf("fresh dir produced recovery state: %+v", rec)
	}
	want := sampleOps()
	for _, op := range want {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if st.Index() != uint64(len(want)) {
		t.Fatalf("index = %d, want %d", st.Index(), len(want))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if !reflect.DeepEqual(rec.Ops, want) {
		t.Fatalf("recovered ops diverged:\n want %+v\n  got %+v", want, rec.Ops)
	}
}

// TestTornTailTruncated writes ops, then chops bytes off the final frame:
// recovery must keep every whole record, flag the torn tail, and truncate
// the file so the next open is clean.
func TestTornTailTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		st, _, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		ops := sampleOps()
		for _, op := range ops {
			if err := st.Append(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		seg := filepath.Join(dir, segmentName(0))
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		last := ops[len(ops)-1]
		frameLen := int64(len(appendFrame(nil, appendOp(nil, last))))
		cut := 1 + rng.Int63n(frameLen-1) // leave a strict prefix of the final frame
		if err := os.Truncate(seg, info.Size()-cut); err != nil {
			t.Fatal(err)
		}

		st2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d: open after torn write: %v", trial, err)
		}
		if !rec.TornTail {
			t.Fatalf("trial %d: torn tail not reported", trial)
		}
		if !reflect.DeepEqual(rec.Ops, ops[:len(ops)-1]) {
			t.Fatalf("trial %d: torn recovery lost whole records: got %d ops", trial, len(rec.Ops))
		}
		st2.Close()

		// The torn bytes are gone: a third open is clean.
		_, rec, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.TornTail {
			t.Fatalf("trial %d: tail still torn after truncation", trial)
		}
	}
}

// TestCorruptionRefused flips a byte in a non-final record: recovery must
// refuse the log with ErrCorrupt, not silently skip damage.
func TestCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range sampleOps() {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	seg := filepath.Join(dir, segmentName(0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log damage: err = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotRotatesAndTruncates checks the cadence machinery: snapshots
// land on segment boundaries, recovery resumes from the newest one, and
// superseded files are deleted (retaining one fallback generation).
func TestSnapshotRotatesAndTruncates(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	core := scheduler.NewCore(driverProcs, true)

	var st *Store
	st, _, err := Open(dir, Options{
		Sync:          SyncNone,
		SnapshotEvery: 10,
		Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	core.SetJournal(st.Append)
	d := newDriver(t, rng, core)
	for i := 0; i < 95; i++ {
		d.step()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want the newest 2", len(snaps))
	}
	for _, seg := range segs {
		if seg.first < snaps[0].first {
			t.Fatalf("segment %s predates the oldest retained snapshot (%d)", seg.path, snaps[0].first)
		}
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State == nil {
		t.Fatal("recovery ignored the snapshot")
	}
	recovered, info, err := rec.Restore(buildRecovered)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered {
		t.Fatal("restore did not report recovery")
	}
	if info.Replayed >= 95 {
		t.Fatalf("replayed %d records despite snapshots", info.Replayed)
	}
	requireSameState(t, core, recovered)
}

// TestSnapshotFallback corrupts the newest snapshot: recovery must fall
// back to the retained previous generation and still reach the same state.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	core := scheduler.NewCore(driverProcs, true)
	st, _, err := Open(dir, Options{
		Sync:          SyncNone,
		SnapshotEvery: 10,
		Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	core.SetJournal(st.Append)
	d := newDriver(t, rng, core)
	for i := 0; i < 60; i++ {
		d.step()
	}
	st.Close()

	_, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("need 2 snapshots for a fallback test, have %d", len(snaps))
	}
	newest := snaps[len(snaps)-1].path
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	_, rec, err := Open(dir, Options{Logf: func(f string, a ...any) {
		logged = append(logged, f)
	}})
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := rec.Restore(buildRecovered)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, core, recovered)
	if len(logged) == 0 || !strings.Contains(logged[0], "skipping snapshot") {
		t.Fatalf("corrupt snapshot skip was not logged: %v", logged)
	}
}

// TestParseSyncPolicy: the three -wal-sync words parse to their policies
// and print back as themselves; any other word, the empty one and other
// casings included, is refused with the valid words named.
func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"none", SyncNone, true},
		{"", 0, false},
		{"Always", 0, false},
		{"fsync", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "want always, interval or none") {
				t.Errorf("%q: policy %v, error %v; want refused", tc.in, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%q: policy %v, error %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%q parses to a policy that prints as %q", tc.in, got.String())
		}
	}
	if s := SyncPolicy(99).String(); s != "unknown" {
		t.Errorf("an undefined policy prints as %q, want unknown", s)
	}
}
