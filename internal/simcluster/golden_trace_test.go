package simcluster_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/modes"
	"repro/internal/scheduler/rebalance"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden decision traces under testdata/")

// traceLog collects one line per arbiter answer, in call order.
type traceLog struct{ bytes.Buffer }

func (l *traceLog) decision(snap scheduler.ClusterSnapshot, d scheduler.Decision) {
	fmt.Fprintf(l, "%s job=%d %s %s %q\n",
		strconv.FormatFloat(snap.Now, 'g', -1, 64), snap.Caller.ID, d.Action, d.Target, d.Text())
}

// build is modes.Build for a test: an unknown mode fails it.
func build(t *testing.T, mode string, in modes.Inputs) scheduler.Arbiter {
	t.Helper()
	arb, err := modes.Build(mode, in)
	if err != nil {
		t.Fatal(err)
	}
	return arb
}

// traced records every answer of the arbiter it wraps. The core discovers
// StartPicker and Planner by type assertion, so tracedPicker and
// tracedPlanner each add exactly the extension their inner arbiter has.
type traced struct {
	scheduler.Arbiter
	log *traceLog
}

func (a traced) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	d := a.Arbiter.Decide(snap)
	a.log.decision(snap, d)
	return d
}

type tracedPicker struct{ traced }

func (a tracedPicker) PickStart(snap scheduler.StartSnapshot) int {
	i := a.Arbiter.(scheduler.StartPicker).PickStart(snap)
	id := -1
	if i >= 0 {
		id = snap.Heads[i].ID
	}
	fmt.Fprintf(a.log, "%s pick job=%d\n", strconv.FormatFloat(snap.Now, 'g', -1, 64), id)
	return i
}

type tracedPlanner struct{ traced }

func (a tracedPlanner) Rebalance(snap scheduler.ClusterSnapshot) {
	a.Arbiter.(scheduler.Planner).Rebalance(snap)
}

// TestGoldenDecisionTraces replays a 300-job three-tenant mix — bursts deep
// enough to back the queue up, gaps long enough that jobs expand in between,
// so drafts, coordinated shrinks, vetoes and planned moves all occur — under
// the fair-share arbiter and under the rebalancer with planning ticks, and
// holds every answer either gives — (time, job, action, target, reason),
// every start pick and every planned directive — to the trace recorded
// before the arbiters stopped sweeping the running set. The files change
// only under -update, and a change to them is a change in scheduling.
func TestGoldenDecisionTraces(t *testing.T) {
	const procs = 256
	params := perfmodel.SystemX()
	mix, err := workload.Generate(workload.GenConfig{
		Seed: 19, MaxProcs: 64, PriorityLevels: 3, Iterations: 6,
		Tenants: []workload.TenantSpec{
			{Name: "bursty", Jobs: 180, MeanInterarrival: 20,
				Pattern: workload.Bursty, Burst: 20, BurstFactor: 100},
			{Name: "steady", Jobs: 60, MeanInterarrival: 60},
			{Name: "diurnal", Jobs: 60, MeanInterarrival: 60,
				Pattern: workload.Diurnal, Period: 3600},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only the fair share reads the weights.
	in := modes.Inputs{
		Weights:    map[string]float64{"bursty": 1, "steady": 2, "diurnal": 1.5},
		Predict:    simcluster.Predictor(params, mix),
		RedistCost: simcluster.RedistPredictor(params, mix),
	}
	for _, tc := range []struct {
		name string
		tick float64
		arb  func(log *traceLog) scheduler.Arbiter
	}{
		{"fairshare", 0, func(log *traceLog) scheduler.Arbiter {
			return tracedPicker{traced{build(t, "fairshare", in), log}}
		}},
		{"rebalance", 60, func(log *traceLog) scheduler.Arbiter {
			reb := build(t, "rebalance", in).(*rebalance.Rebalancer)
			reb.OnPlan = func(p rebalance.Plan) {
				for _, d := range p.Directives {
					fmt.Fprintf(log, "%s plan job=%d %s->%s %s\n", strconv.FormatFloat(p.Now, 'g', -1, 64),
						d.JobID, d.From, d.To, strconv.FormatFloat(d.Gain, 'g', -1, 64))
				}
			}
			return tracedPlanner{traced{reb, log}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &traceLog{}
			sim := simcluster.New(procs, simcluster.Dynamic, params, mix).
				WithCore(scheduler.NewCore(procs, true)).WithArbiter(tc.arb(log))
			if tc.tick > 0 {
				sim = sim.WithRebalance(tc.tick)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != len(mix) {
				t.Fatalf("%d of %d jobs finished", len(res.Jobs), len(mix))
			}
			path := filepath.Join("testdata", "decisions-"+tc.name+".trace")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(log.Bytes(), want) {
				got, wantLines := bytes.Split(log.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := range got {
					if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
						w := []byte("<end of golden trace>")
						if i < len(wantLines) {
							w = wantLines[i]
						}
						t.Fatalf("decision trace diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], w)
					}
				}
				t.Fatalf("decision trace is a strict prefix of %s (%d of %d lines)", path, len(got), len(wantLines))
			}
		})
	}
}
