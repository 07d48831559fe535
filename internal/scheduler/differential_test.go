package scheduler

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/grid"
)

var update = flag.Bool("update", false, "rewrite the recorded reference outputs under testdata/")

// referenceGolden holds what the pre-refactor linear-scan reference core
// answered to the seeded op sequences of TestCoreMatchesLinearReference.
const referenceGolden = "linear-reference.golden"

// recordReference replays 30 seeded sequences of 400 random operations
// (Submit, Contact, ResizeComplete, Finish) against fresh cores and renders
// everything externally visible: per op the started job ids in order, the
// decision (action, target, reason) and the idle and queue lengths after
// it; per seed the allocation-event count, a digest of the events, and the
// busy-seconds integral. Decision reasons are interned: each is spelled out
// once, on a reason line before the op that first gives it.
func recordReference() []byte {
	var out bytes.Buffer
	out.WriteString("# per op: index, op, job, [decision: action target reason], [started ids], f<idle> q<queued>\n")
	reasons := map[string]int{}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 8 + rng.Intn(56)
		backfill := rng.Intn(2) == 0
		c := NewCore(total, backfill)
		fmt.Fprintf(&out, "seed %d total=%d backfill=%v\n", seed, total, backfill)
		now := 0.0
		for op := 0; op < 400; op++ {
			now += rng.Float64() * 10
			running := runningJobs(c)
			kind := rng.Intn(4)
			pick := -1
			if len(running) > 0 {
				pick = running[rng.Intn(len(running))].ID
			}
			var sp JobSpec
			if kind == 0 {
				n := []int{8000, 12000, 14000, 21000}[rng.Intn(4)]
				start, ok := grid.SmallestConfig(n, 2+rng.Intn(4), total)
				if !ok {
					continue
				}
				sp = JobSpec{
					Name: "j", App: "lu", ProblemSize: n,
					Iterations:  1 << 30,
					Priority:    rng.Intn(3),
					InitialTopo: start,
					Chain:       grid.GrowthChain(start, n, total),
				}
			}
			iter := 10 + rng.Float64()*100
			red := rng.Float64() * 5
			if kind != 0 && pick < 0 {
				continue
			}
			var started []*Job
			var err error
			var line string
			switch kind {
			case 0:
				_, started, err = c.Submit(sp, now)
				line = "submit"
			case 1:
				j, _ := c.Job(pick)
				var d Decision
				d, err = c.Contact(pick, j.Topo, iter, 0, now)
				r, ok := reasons[d.Reason]
				if !ok {
					r = len(reasons)
					reasons[d.Reason] = r
					fmt.Fprintf(&out, "reason r%d %q\n", r, d.Reason)
				}
				line = fmt.Sprintf("contact %d %s %s r%d", pick, d.Action, d.Target, r)
			case 2:
				started, err = c.ResizeComplete(pick, red, now)
				line = fmt.Sprintf("resized %d", pick)
			case 3:
				started, err = c.Finish(pick, now)
				line = fmt.Sprintf("finish %d", pick)
			}
			fmt.Fprintf(&out, "%d %s", op, line)
			if err != nil {
				out.WriteString(" error")
			}
			for i, j := range started {
				if i == 0 {
					out.WriteString(" started")
				}
				fmt.Fprintf(&out, " %d", j.ID)
			}
			fmt.Fprintf(&out, " f%d q%d\n", c.Free(), c.QueueLen())
		}
		h := sha256.New()
		events := c.AllocEvents()
		for _, e := range events {
			fmt.Fprintf(h, "%s %d %s %s %s %d\n", strconv.FormatFloat(e.Time, 'g', -1, 64),
				e.JobID, e.Job, e.Kind, e.Topo, e.Busy)
		}
		fmt.Fprintf(&out, "events %d sha256=%x busy-seconds=%s\n", len(events), h.Sum(nil),
			strconv.FormatFloat(c.BusySeconds(now), 'g', -1, 64))
	}
	return out.Bytes()
}

// checkGolden holds got to testdata/name, reporting the first differing
// line; under -update it rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			w := []byte("<end of golden file>")
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("output diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], w)
		}
	}
	t.Fatalf("output is a strict prefix of %s (%d of %d lines)", path, len(gotLines), len(wantLines))
}

// TestCoreMatchesLinearReference holds the event-indexed Core to the
// recorded answers of the pre-refactor linear-scan reference on identical
// random operation sequences: the same jobs start in the same order, the
// same decisions come back from every contact, and the allocation traces
// match event for event. The golden changes only under -update, and a
// change to it is a change in scheduling.
func TestCoreMatchesLinearReference(t *testing.T) {
	checkGolden(t, referenceGolden, recordReference())
}

// TestQueueBackfillPicksBestRankedFit covers the indexed queue's bucket
// search directly: with the head blocked, backfill must start the
// best-ranked job that fits, honoring priority before submission order.
func TestQueueBackfillPicksBestRankedFit(t *testing.T) {
	c := NewCore(10, true)
	c.Submit(spec("hog", topo(2, 4), 8000), 0)               // 8 busy, 2 free
	c.Submit(spec("head", topo(2, 3), 12000), 1)             // needs 6: queues
	filler, _, _ := c.Submit(spec("f", topo(1, 2), 8000), 2) // backfills: 0 free
	if filler.State != Running {
		t.Fatal("filler should backfill immediately")
	}
	low, _, _ := c.Submit(spec("low", topo(1, 2), 8000), 3) // queues
	hiPrio := spec("hi", topo(1, 2), 8000)
	hiPrio.Priority = 5
	hi, _, _ := c.Submit(hiPrio, 4) // queues behind low by time, ahead by priority
	if low.State != Queued || hi.State != Queued {
		t.Fatalf("states %v/%v, want both queued", low.State, hi.State)
	}
	started, err := c.Finish(filler.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != hi {
		t.Fatalf("backfill started %v, want the high-priority fit first", started)
	}
	if hi.State != Running || low.State != Queued {
		t.Fatalf("states hi=%v low=%v", hi.State, low.State)
	}
}

// TestCoreCrossShardExpansionViaContact: a job walked upward through
// Contact must keep being granted expansions past a quarter of the cluster
// (the span one shard of the retired sharded pool held), and every grant
// must come out of the one idle counter: free + held == Total after each
// step, and no expansion may be granted beyond what is idle.
func TestCoreCrossShardExpansionViaContact(t *testing.T) {
	c := NewCore(16, false)
	a, _, err := c.Submit(spec("a", topo(1, 2), 12000), 0)
	if err != nil {
		t.Fatal(err)
	}
	iter := 130.0
	for i := 0; i < 8; i++ {
		before := c.Free()
		d, err := c.Contact(a.ID, a.Topo, iter, 0, float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionExpand {
			break
		}
		if grown := before - c.Free(); grown <= 0 || grown > before {
			t.Fatalf("expansion to %v took %d of %d idle", d.Target, grown, before)
		}
		if _, err := c.ResizeComplete(a.ID, 1, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if c.Free() < 0 || c.Free()+a.Topo.Count() != c.Total {
			t.Fatalf("accounting: free %d + held %d != %d", c.Free(), a.Topo.Count(), c.Total)
		}
		iter *= 0.8 // keep improving so the policy keeps probing
	}
	if a.Topo.Count() <= c.Total/4 {
		t.Fatalf("job never outgrew a quarter of the cluster: %v", a.Topo)
	}
	if _, err := c.Finish(a.ID, 20); err != nil {
		t.Fatal(err)
	}
	if c.Free() != c.Total {
		t.Fatalf("free %d of %d after finish", c.Free(), c.Total)
	}
}
