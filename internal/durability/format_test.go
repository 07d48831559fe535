package durability

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/scheduler"
)

// parentFormatDir is a WAL directory written by writeFormatFixture at the
// commit before group commit (PR 11): two snapshots, the segments between
// them and a log tail. It pins the on-disk format from both sides.
const parentFormatDir = "testdata/parent-format"

// writeFormatFixture journals a fixed op stream into dir: the seeded random
// driver's, with a snapshot every 16 records. It returns the live core.
func writeFormatFixture(t *testing.T, dir string) *scheduler.Core {
	t.Helper()
	core := scheduler.NewCore(driverProcs, true)
	st, _, err := Open(dir, Options{
		Sync:          SyncNone,
		SnapshotEvery: 16,
		Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), uint64(len(core.Events)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	core.SetJournal(st.Append)
	d := newDriver(t, rand.New(rand.NewSource(42)), core)
	for i := 0; i < 60; i++ {
		d.step()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return core
}

// TestParentFormatDirectoryRecovers: a directory the parent commit wrote
// recovers under this code to the state the same op stream leads to.
func TestParentFormatDirectoryRecovers(t *testing.T) {
	want := writeFormatFixture(t, t.TempDir())
	// Open appends a fresh segment, so recover a copy, not the fixture.
	st, rec, err := Open(copyDir(t, parentFormatDir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec.State == nil || len(rec.Ops) == 0 {
		t.Fatalf("fixture should recover from a snapshot plus a tail; got snapshot %v, %d ops", rec.State != nil, len(rec.Ops))
	}
	got, info, err := rec.Restore(buildRecovered)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, want, got)
	if info.Seq != uint64(len(want.Events)) {
		t.Fatalf("recovered seq %d, want %d", info.Seq, len(want.Events))
	}
}

// TestWritesParentFormatBytes: this code writes the fixture's op stream to
// the same files with the same bytes as the parent commit did, so the
// parent recovers a directory written here just as it recovers its own.
func TestWritesParentFormatBytes(t *testing.T) {
	dir := t.TempDir()
	writeFormatFixture(t, dir)
	want, err := os.ReadDir(parentFormatDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wrote %d files, the parent wrote %d", len(got), len(want))
	}
	for i, e := range want {
		if got[i].Name() != e.Name() {
			t.Fatalf("file %d is %s, the parent's is %s", i, got[i].Name(), e.Name())
		}
		a, err := os.ReadFile(filepath.Join(parentFormatDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the parent's bytes (%d vs %d bytes)", e.Name(), len(b), len(a))
		}
	}
}

// TestDecodeSnapshotRejectsNonPositiveShards: the snapshot's shard-count
// field is always written as 1, and a count <= 0 is corruption.
func TestDecodeSnapshotRejectsNonPositiveShards(t *testing.T) {
	good := appendSnapshot(nil, &snapshotBlob{State: &scheduler.CoreState{Total: 16}})
	if _, err := decodeSnapshot(good); err != nil {
		t.Fatal(err)
	}
	// Index, Seq, Clock and Total precede the shard count.
	head := codec.AppendInt(codec.AppendFloat(codec.AppendUint(codec.AppendUint(nil, 0), 0), 0), 16)
	shards := codec.AppendInt(nil, snapShards)
	if !bytes.HasPrefix(good, append(head, shards...)) {
		t.Fatal("snapshot layout changed: the shard count no longer follows the cluster size")
	}
	for _, n := range []int{0, -2} {
		bad := append(codec.AppendInt(append([]byte{}, head...), n), good[len(head)+len(shards):]...)
		if _, err := decodeSnapshot(bad); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%d shards: decode error %v, want ErrBadRecord", n, err)
		}
	}
}

// TestDecodedSnapshotMatchesPersistedState: a decoded snapshot gives every
// profile the shape PersistState gives a live one (nil Redist before the
// first redistribution, nil Visits before the first iteration), so the two
// states compare equal field by field, not just byte for byte.
func TestDecodedSnapshotMatchesPersistedState(t *testing.T) {
	core := scheduler.NewCore(driverProcs, true)
	d := newDriver(t, rand.New(rand.NewSource(7)), core)
	for i := 0; i < 120; i++ {
		d.step()
		if i%10 != 0 {
			continue
		}
		want := core.PersistState()
		blob, err := decodeSnapshot(appendSnapshot(nil, &snapshotBlob{State: want}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, blob.State) {
			t.Fatalf("step %d: decoded state differs from the persisted one", i)
		}
	}
}

// redistPayload encodes a one-job snapshot whose profile holds a pair under
// each of keys, in order, as if written by a snapshot that could hold any.
func redistPayload(keys ...string) []byte {
	const placeholder = "1x1->1x1"
	pairs := make([]scheduler.RedistPair, len(keys))
	for i := range pairs {
		pairs[i] = scheduler.RedistPair{From: grid.Topology{Rows: 1, Cols: 1}, To: grid.Topology{Rows: 1, Cols: 1}, Seconds: float64(i)}
	}
	good := appendSnapshot(nil, &snapshotBlob{State: &scheduler.CoreState{Total: 16, NextID: 1, Jobs: []scheduler.PersistedJob{
		{Profile: &scheduler.Profile{Redist: pairs}},
	}}})
	var out []byte
	for i, k := range keys {
		at := bytes.Index(good, codec.AppendString(nil, placeholder))
		out = append(out, good[:at]...)
		out = codec.AppendString(out, k)
		good = good[at+1+len(placeholder):]
		if i == len(keys)-1 {
			out = append(out, good...)
		}
	}
	return out
}

// malformedRedistKeys are keys no snapshot writer produced: no "->", a
// topology that is not "RxC" in strconv.AppendInt's digits, a non-positive
// dimension or one past an int, trailing bytes.
var malformedRedistKeys = []string{
	"", "2x2", "2x2-2x4", "2x2>2x4", "2x2->", "->2x4", "2x2->->2x4",
	"2x->2x4", "x2->2x4", "2y2->2x4", "2x2->2x4x", "2x2->2x4->1x1", "2x2 ->2x4",
	"0x2->2x4", "2x0->2x4", "2x2->0x4", "-2x2->2x4", "2x-2->2x4", "+2x2->2x4",
	"02x2->2x4", "2x2->2x04", "99999999999999999999x2->2x4",
}

// TestDecodeSnapshotRejectsMalformedRedistKeys: a redistribution key that
// does not parse into two valid topologies, or a pair decoded twice, fails
// the decode with ErrBadRecord; well-formed keys in any order decode to
// their pairs.
func TestDecodeSnapshotRejectsMalformedRedistKeys(t *testing.T) {
	blob, err := decodeSnapshot(redistPayload("2x4->2x2", "12x1->2x4"))
	if err != nil {
		t.Fatal(err)
	}
	got := blob.State.Jobs[0].Profile.Redist
	want := []scheduler.RedistPair{
		{From: grid.Topology{Rows: 2, Cols: 4}, To: grid.Topology{Rows: 2, Cols: 2}, Seconds: 0},
		{From: grid.Topology{Rows: 12, Cols: 1}, To: grid.Topology{Rows: 2, Cols: 4}, Seconds: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded pairs %v, want %v", got, want)
	}
	for _, keys := range append([][]string{{"2x2->2x4", "2x2->2x4"}, {"1x2->2x2", "2x2->2x4", "1x2->2x2"}},
		func() (ks [][]string) {
			for _, k := range malformedRedistKeys {
				ks = append(ks, []string{"1x2->2x2", k})
			}
			return ks
		}()...) {
		if _, err := decodeSnapshot(redistPayload(keys...)); !errors.Is(err, ErrBadRecord) {
			t.Errorf("keys %q: decode error %v, want ErrBadRecord", keys, err)
		}
	}
}

// TestParentFormatSnapshotsRecapture: each snapshot the parent commit wrote,
// restored into a core and captured again, encodes to the file's bytes.
func TestParentFormatSnapshotsRecapture(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(parentFormatDir, "snap-*.snap"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshots in %s: %v", parentFormatDir, err)
	}
	for _, name := range names {
		blob, err := readSnapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		core, err := scheduler.NewCoreFromState(blob.State)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		again := &snapshotBlob{Index: blob.Index, Seq: blob.Seq, Clock: blob.Clock, State: core.PersistState()}
		if body := file[len(snapMagic)+4:]; !bytes.Equal(appendSnapshot(nil, again), body) {
			t.Errorf("%s: restored and captured again, it encodes to other bytes", filepath.Base(name))
		}
	}
}
