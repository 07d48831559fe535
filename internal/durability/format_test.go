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
