package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/codec"
	"repro/internal/scheduler"
)

// ErrSnapshotCorrupt marks a snapshot file that fails its magic or
// checksum. Recovery skips such a file and falls back to an older
// snapshot (or genesis) plus the retained log segments.
var ErrSnapshotCorrupt = errors.New("durability: corrupt snapshot")

// snapMagic opens every snapshot file; a version bump changes it.
// RSHSNAP2 replaced gob with the WAL's hand-rolled varint codec: at 100k
// jobs the reflective gob decode made restoring a snapshot *slower* than
// replaying the log it summarized (~360ms vs ~195ms), inverting the whole
// point of snapshotting. RSHSNAP3 added the job spec's Tenant field for
// the fair-share subsystem. Files with older magics are treated as corrupt
// and recovery falls back to replay — exactly the path they were
// summarizing.
const snapMagic = "RSHSNAP3"

// snapShards fills the snapshot's shard-count field, which stays in the
// format because older readers rebuilt a processor pool of that many shards
// from it. It is written as 1; a count <= 0 is corruption.
const snapShards = 1

// snapshotBlob is a snapshot file's payload: the scheduler image plus the
// continuity values a recovered Server needs.
type snapshotBlob struct {
	// Index is the global index of the first record NOT covered: replay
	// resumes there.
	Index uint64
	// Seq is the watch-event sequence number already published.
	Seq uint64
	// Clock is the scheduler clock at the time of the snapshot.
	Clock float64
	State *scheduler.CoreState
}

// snapName returns the snapshot file name covering records [0, index).
func snapName(index uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, index, snapSuffix)
}

// appendSnapshot encodes the blob with the same bounds-friendly varint
// vocabulary as the WAL records. Each redistribution pair is written under
// its "RxC->RxC" key, in the state's order: PersistState gives the pairs in
// ascending key order, the order the format has always had, so identical
// states encode to identical bytes.
func appendSnapshot(dst []byte, blob *snapshotBlob) []byte {
	dst = codec.AppendUint(dst, blob.Index)
	dst = codec.AppendUint(dst, blob.Seq)
	dst = codec.AppendFloat(dst, blob.Clock)
	st := blob.State
	dst = codec.AppendInt(dst, st.Total)
	dst = codec.AppendInt(dst, snapShards)
	if st.Backfill {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = codec.AppendInt(dst, st.NextID)
	dst = codec.AppendFloat(dst, st.BusySeconds)
	dst = codec.AppendInt(dst, st.LastBusy)
	dst = codec.AppendFloat(dst, st.LastBusyTime)
	dst = codec.AppendUint(dst, uint64(len(st.Jobs)))
	for i := range st.Jobs {
		j := &st.Jobs[i]
		dst = codec.AppendInt(dst, j.ID)
		dst = codec.AppendSpec(dst, &j.Spec)
		dst = codec.AppendInt(dst, int(j.State))
		dst = codec.AppendTopo(dst, j.Topo)
		dst = codec.AppendFloat(dst, j.SubmitTime)
		dst = codec.AppendFloat(dst, j.StartTime)
		dst = codec.AppendFloat(dst, j.EndTime)
		dst = codec.AppendInt(dst, j.PendingFree)
		dst = codec.AppendTopo(dst, j.ResizeFrom)
		p := j.Profile
		if p == nil {
			p = scheduler.NewProfile()
		}
		dst = codec.AppendUint(dst, uint64(len(p.Visits)))
		for vi := range p.Visits {
			v := &p.Visits[vi]
			dst = codec.AppendTopo(dst, v.Topo)
			dst = codec.AppendUint(dst, uint64(len(v.IterTimes)))
			for _, t := range v.IterTimes {
				dst = codec.AppendFloat(dst, t)
			}
		}
		dst = appendRedist(dst, p.Redist)
	}
	return dst
}

// appendRedist encodes one profile's redistribution pairs, each as its
// length-prefixed key and its cost. The key is formatted here, at capture,
// so the profile never holds one.
func appendRedist(dst []byte, redist []scheduler.RedistPair) []byte {
	dst = codec.AppendUint(dst, uint64(len(redist)))
	for i := range redist {
		r := &redist[i]
		var key [64]byte
		k := r.AppendKey(key[:0])
		dst = codec.AppendUint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = codec.AppendFloat(dst, r.Seconds)
	}
	return dst
}

// decodeRedist decodes the pairs appendRedist wrote into p. A key that
// scheduler.ParseRedistKey refuses, or a pair already decoded, is
// malformed: a live profile holds one cost per pair.
func decodeRedist(d *codec.Decoder, p *scheduler.Profile) {
	// An empty list stays nil, as in a live profile before its first
	// redistribution (see scheduler.Profile).
	n := d.Count(codec.MaxChainLen, 9)
	if n == 0 {
		return
	}
	p.Redist = make([]scheduler.RedistPair, n)
	for i := range p.Redist {
		from, to, ok := scheduler.ParseRedistKey(d.Bytes())
		if d.Err() != nil {
			return
		}
		if !ok {
			d.Fail("bad redistribution key")
			return
		}
		if slices.ContainsFunc(p.Redist[:i], func(r scheduler.RedistPair) bool {
			return r.From == from && r.To == to
		}) {
			d.Fail("duplicate redistribution key")
			return
		}
		p.Redist[i] = scheduler.RedistPair{From: from, To: to, Seconds: d.Float()}
	}
}

// decodeSnapshot decodes one payload produced by appendSnapshot. Like
// decodeOp it returns a typed error on any malformation and never panics,
// whatever the input.
func decodeSnapshot(payload []byte) (*snapshotBlob, error) {
	d := codec.NewDecoder(payload, ErrBadRecord, nil)
	blob := &snapshotBlob{State: &scheduler.CoreState{}}
	st := blob.State
	blob.Index = d.Uint()
	blob.Seq = d.Uint()
	blob.Clock = d.Float()
	st.Total = d.Int()
	if d.Int() <= 0 {
		d.Fail("non-positive shard count")
	}
	st.Backfill = d.Byte() != 0
	st.NextID = d.Int()
	st.BusySeconds = d.Float()
	st.LastBusy = d.Int()
	st.LastBusyTime = d.Float()
	// A job image is ≥ 40 bytes (six floats plus a dozen varints): the
	// pre-sized slice is the restore path's one big allocation.
	st.Jobs = make([]scheduler.PersistedJob, d.Count(maxSnapshotJobs, 40))
	for i := range st.Jobs {
		if d.Err() != nil {
			return nil, d.Err()
		}
		j := &st.Jobs[i]
		j.ID = d.Int()
		d.Spec(&j.Spec)
		j.State = scheduler.JobState(d.Int())
		j.Topo = d.Topo()
		j.SubmitTime = d.Float()
		j.StartTime = d.Float()
		j.EndTime = d.Float()
		j.PendingFree = d.Int()
		j.ResizeFrom = d.Topo()
		p := &scheduler.Profile{}
		j.Profile = p
		if nvisits := d.Count(codec.MaxChainLen, 3); nvisits > 0 {
			p.Visits = make([]scheduler.Visit, nvisits)
			for vi := range p.Visits {
				v := &p.Visits[vi]
				v.Topo = d.Topo()
				if niters := d.Count(maxRecordSize, 8); niters > 0 {
					v.IterTimes = make([]float64, niters)
					for ti := range v.IterTimes {
						v.IterTimes[ti] = d.Float()
					}
				}
			}
		}
		decodeRedist(&d, p)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return blob, nil
}

// maxSnapshotJobs bounds the decoded job count; far above anything real
// (the 1M-job throughput benchmark included) while keeping a corrupt
// varint from sizing an absurd allocation.
const maxSnapshotJobs = 1 << 27

// writeSnapshot persists a snapshot crash-safely: encode, checksum, write
// to a temp file, fsync, rename into place, fsync the directory. A crash
// at any point leaves either no new snapshot (temp files are ignored) or
// a complete one — never a half-visible snapshot.
func writeSnapshot(dir string, blob *snapshotBlob) (string, error) {
	body := appendSnapshot(nil, blob)
	var head [len(snapMagic) + 4]byte
	copy(head[:], snapMagic)
	binary.LittleEndian.PutUint32(head[len(snapMagic):], crc32.Checksum(body, crcTable))

	final := filepath.Join(dir, snapName(blob.Index))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("durability: create snapshot: %w", err)
	}
	if _, err := f.Write(head[:]); err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("durability: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("durability: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (*snapshotBlob, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durability: read snapshot: %w", err)
	}
	if len(b) < len(snapMagic)+4 || string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrSnapshotCorrupt, filepath.Base(path))
	}
	want := binary.LittleEndian.Uint32(b[len(snapMagic):])
	body := b[len(snapMagic)+4:]
	if crc32.Checksum(body, crcTable) != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrSnapshotCorrupt, filepath.Base(path))
	}
	blob, err := decodeSnapshot(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, filepath.Base(path), err)
	}
	return blob, nil
}
