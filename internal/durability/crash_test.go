package durability

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/scheduler"
)

// crashPoint enumerates where in an operation's lifecycle the process dies.
type crashPoint int

const (
	// crashClean is a controlled restart: no in-flight op.
	crashClean crashPoint = iota
	// crashMidAppend dies while the in-flight op's frame is being written:
	// a torn tail, the op was never acknowledged.
	crashMidAppend
	// crashAfterAppend dies after the append fsynced but before the op was
	// applied or acknowledged: the op is durable and replays.
	crashAfterAppend
	// crashMidSnapshot dies during a snapshot write, leaving a temp file
	// (and, separately, simulated rot in the newest published snapshot).
	crashMidSnapshot
	numCrashPoints
)

func (p crashPoint) String() string {
	return [...]string{"clean-restart", "mid-append", "after-append", "mid-snapshot"}[p]
}

// TestCrashRecovery is the crash-injection harness: for 120 seeded random
// schedules it kills the control plane at a randomized point in a
// randomized op's lifecycle, recovers from disk, and requires the
// recovered scheduler to be bit-identical to the state implied by the
// acknowledged ops (plus the one in-flight op exactly when its append
// completed — at-most-once, never twice, and never losing an acked job).
func TestCrashRecovery(t *testing.T) {
	const seeds = 120
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		point := crashPoint(rng.Intn(int(numCrashPoints)))
		dir := t.TempDir()

		core := scheduler.NewCore(driverProcs, true)
		snapshotEvery := uint64([]int{0, 5, 20}[rng.Intn(3)])
		st, rec, err := Open(dir, Options{
			Sync:          SyncNone, // tests crash the process, not the machine
			SnapshotEvery: snapshotEvery,
			Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rec.State != nil || len(rec.Ops) > 0 {
			t.Fatalf("seed %d: fresh directory was not empty", seed)
		}
		core.SetJournal(st.Append)

		d := newDriver(t, rng, core)
		steps := 30 + rng.Intn(170)
		for i := 0; i < steps; i++ {
			d.step()
		}

		// expected is the op stream that must survive the crash.
		expected := append([]scheduler.Op(nil), d.acked...)
		wantTorn := false
		switch point {
		case crashClean:
			if err := st.Close(); err != nil {
				t.Fatalf("seed %d: close: %v", seed, err)
			}
		case crashMidAppend:
			// The op reaches the log but the process dies inside the write:
			// simulate by appending it whole, then tearing its frame.
			op := d.nextOp()
			if err := st.Append(op); err != nil {
				t.Fatalf("seed %d: append in-flight: %v", seed, err)
			}
			st.Close()
			frameLen := int64(len(appendFrame(nil, appendOp(nil, op))))
			tearTail(t, dir, 1+rng.Int63n(frameLen-1))
			wantTorn = true
		case crashAfterAppend:
			// The append completed and fsynced; the process dies before the
			// core applies the op or anyone is acknowledged. The op is
			// durable: recovery must replay it exactly once.
			op := d.nextOp()
			if err := st.Append(op); err != nil {
				t.Fatalf("seed %d: append in-flight: %v", seed, err)
			}
			st.Close()
			expected = append(expected, op)
		case crashMidSnapshot:
			st.Close()
			// A crash mid-snapshot leaves an unrenamed temp file; recovery
			// must ignore it.
			tmp := filepath.Join(dir, snapName(uint64(len(expected)))+".tmp")
			if err := os.WriteFile(tmp, []byte("partial snapshot garbage"), 0o644); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		st2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d (%v, %d steps, snap %d): reopen: %v", seed, point, steps, snapshotEvery, err)
		}
		defer st2.Close()
		if rec.TornTail != wantTorn {
			t.Fatalf("seed %d (%v): TornTail = %v, want %v", seed, point, rec.TornTail, wantTorn)
		}

		recovered, info, err := rec.Restore(buildRecovered)
		if err != nil {
			t.Fatalf("seed %d (%v): restore: %v", seed, point, err)
		}
		model := replayOps(t, expected)
		requireSameState(t, model, recovered)

		// No accepted job lost, none duplicated: every submit in the
		// surviving stream exists exactly once (ids are sequential, so a
		// duplicate would shift every later id and fail state equality; the
		// count pins the total).
		submits := 0
		for _, op := range expected {
			if op.Kind == scheduler.OpSubmit {
				submits++
			}
		}
		if got := len(recovered.Jobs()); got != submits {
			t.Fatalf("seed %d (%v): recovered %d jobs, %d were accepted", seed, point, got, submits)
		}
		if info.Jobs != submits {
			t.Fatalf("seed %d (%v): RestoreInfo.Jobs = %d, want %d", seed, point, info.Jobs, submits)
		}
	}
}

// tearTail removes cut bytes from the end of the newest WAL segment,
// simulating a write torn by a crash.
func tearTail(t *testing.T, dir string, cut int64) {
	t.Helper()
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments to tear")
	}
	// The in-flight op always lands in the newest segment — but Open
	// leaves a fresh empty segment behind only on recovery, not on close,
	// so the newest segment here is the one holding the frame.
	last := segs[len(segs)-1]
	info, err := os.Stat(last.path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < cut {
		t.Fatalf("segment %s too small (%d bytes) to cut %d", last.path, info.Size(), cut)
	}
	if err := os.Truncate(last.path, info.Size()-cut); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryThenContinue recovers from a crash and keeps operating:
// the recovered journal accepts new ops, snapshots on cadence, and a second
// recovery still matches the model. Durability must survive durability.
func TestCrashRecoveryThenContinue(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		dir := t.TempDir()

		core := scheduler.NewCore(driverProcs, true)
		st, _, err := Open(dir, Options{Sync: SyncNone, SnapshotEvery: 8,
			Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 }})
		if err != nil {
			t.Fatal(err)
		}
		core.SetJournal(st.Append)
		d := newDriver(t, rng, core)
		for i := 0; i < 40; i++ {
			d.step()
		}
		// Crash with a torn in-flight frame.
		op := d.nextOp()
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
		st.Close()
		frameLen := int64(len(appendFrame(nil, appendOp(nil, op))))
		tearTail(t, dir, 1+rng.Int63n(frameLen-1))

		// First recovery; resume journaling on the recovered core.
		var core2 *scheduler.Core
		st2, rec, err := Open(dir, Options{Sync: SyncNone, SnapshotEvery: 8,
			Capture: func() (*scheduler.CoreState, uint64) { return core2.PersistState(), 0 }})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		core2, _, err = rec.Restore(buildRecovered)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		core2.SetJournal(st2.Append)

		// The fresh driver does not know which recovered jobs still owe a
		// ResizeComplete; it doesn't need to — the core accepts contacts on
		// them, and determinism only requires live and replayed cores to see
		// the same stream.
		d2 := newDriver(t, rng, core2)
		d2.now = d.now
		d2.submitted = d.submitted
		for i := 0; i < 40; i++ {
			d2.step()
		}
		st2.Close()

		_, rec, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d: second reopen: %v", seed, err)
		}
		recovered, _, err := rec.Restore(buildRecovered)
		if err != nil {
			t.Fatalf("seed %d: second restore: %v", seed, err)
		}
		requireSameState(t, core2, recovered)
	}
}

// TestCrashPowerLossUnderGroupCommit is the crash harness for the one crash
// point group commit adds: the machine loses power between a batch's writes
// and the fsync that would have covered them. Eight concurrent committers
// drive a Server on a real SyncAlways store; at a flush chosen by the seed
// the power goes, which leaves the segment holding everything the last good
// flush covered plus, by the seed again, none, some (cut mid-frame) or all
// of what was written after it. Then the directory is recovered, the run
// continues on the recovered scheduler and loses power a second time.
//
// Against the shadow model — the ops in the order the journal accepted them
// — every recovery must yield a prefix of that order, exactly (state
// DeepEqual, so nothing reordered and nothing twice), and the prefix must
// contain every op a caller was acknowledged for. Ops written but never
// acknowledged may be in it or not.
func TestCrashPowerLossUnderGroupCommit(t *testing.T) {
	const (
		seeds   = 40
		workers = 8
		procs   = 64 // room for both rounds' jobs, orphans of the first crash included
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		dir := t.TempDir()
		snapshotEvery := uint64([]int{0, 7, 25}[rng.Intn(3)])
		var model []scheduler.Op // what the directory holds, in journal order

		for round := 0; round < 2; round++ {
			// Flushes take a moment, so records do pile up behind them.
			seam := &flushSeam{delay: 50 * time.Microsecond, failAt: 2 + rng.Intn(30)}
			p := serve(t, dir, procs, Options{Sync: SyncAlways, SnapshotEvery: snapshotEvery}, seam, nil)
			requireSameState(t, replayOpsOn(t, procs, model), p.core)

			// acked counts, per job name, the ops whose caller got a nil error.
			// A worker runs its jobs one op at a time, so the acknowledged ops
			// of a job are the first so-many of that job's ops in the journal.
			acked := make(map[string]int)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					mine := make(map[string]int)
					defer func() {
						mu.Lock()
						defer mu.Unlock()
						for name, n := range mine {
							acked[name] = n
						}
					}()
					for i := 0; ; i++ {
						name := fmt.Sprintf("r%d-w%d-%d", round, w, i)
						if err := runJob(p.srv, name, 2, func() { mine[name]++ }); err != nil {
							if !errors.Is(err, ErrFailed) {
								t.Errorf("seed %d round %d: %v", seed, round, err)
							}
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := p.st.Close(); !errors.Is(err, ErrFailed) {
				t.Fatalf("seed %d round %d: close after power loss: %v", seed, round, err)
			}
			if t.Failed() {
				return
			}

			// Power loss: the segment keeps what the last good flush covered
			// and an arbitrary amount of what was written after it.
			if len(seam.atFail) != 1 {
				t.Fatalf("seed %d round %d: no flush failed", seed, round)
			}
			for path, written := range seam.atFail {
				durable := seam.synced[path] // 0 for a segment no flush covered yet
				cut := durable
				switch rng.Intn(3) {
				case 1:
					cut = written
				case 2:
					cut += rng.Int63n(written - durable + 1)
				}
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
			}

			st, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("seed %d round %d: reopen: %v", seed, round, err)
			}
			recovered, _, err := rec.Restore(buildOn(procs))
			if err != nil {
				t.Fatalf("seed %d round %d: restore: %v", seed, round, err)
			}
			journal := append(model, p.written...)
			if len(p.refused) > 0 {
				journal = append(journal, p.refused[0])
			}
			kept := int(st.Index())
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if kept < len(model) || kept > len(journal) {
				t.Fatalf("seed %d round %d: recovered %d records; %d were durable before the round, %d written in all",
					seed, round, kept, len(model), len(journal))
			}
			model = journal[:kept]
			requireSameState(t, replayOpsOn(t, procs, model), recovered)
			if tail := model[len(model)-len(rec.Ops):]; len(rec.Ops) > 0 && !reflect.DeepEqual(tail, rec.Ops) {
				t.Fatalf("seed %d round %d: the recovered log tail is not the journal's", seed, round)
			}

			// Every acknowledged op is in the surviving prefix.
			survived := make(map[string]int)
			var names []string // job id -> name: ids follow submit order
			for _, op := range model {
				if op.Kind == scheduler.OpSubmit {
					names = append(names, op.Spec.Name)
					survived[op.Spec.Name]++
				} else {
					survived[names[op.JobID]]++
				}
			}
			for name, n := range acked {
				if survived[name] < n {
					t.Fatalf("seed %d round %d (flush %d, snapshots every %d): job %s was acknowledged %d ops, %d survived",
						seed, round, seam.failAt, snapshotEvery, name, n, survived[name])
				}
			}
		}
	}
}
