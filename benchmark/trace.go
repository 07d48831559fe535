package main

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scheduler"
)

// The traced run records spans from this package only: around the client
// calls, and through the seams each layer already exposes (the core's
// journal hook, the arbiter slot, the SDK logger). A span is a name, a start
// and an end in nanoseconds since the tracer was made, the name of the span
// that caused it, and the request it belongs to ("job/op#"). A layer's self
// time is its span minus the part of that interval its children cover.

// span is one recorded interval.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Req     string `json:"req,omitempty"`
}

// spanAgg is the running total kept for every span name, whether or not
// the spans themselves are kept. A hot span times only one call in so many:
// count is every call, timed the ones behind sumNS and samples.
type spanAgg struct {
	count   int64
	timed   int64
	sumNS   int64
	samples []int64 // durations, for percentiles
}

// totalNS is the time all calls took, scaled up from the timed ones.
func (a *spanAgg) totalNS() float64 {
	if a == nil || a.timed == 0 {
		return 0
	}
	return float64(a.sumNS) * float64(a.count) / float64(a.timed)
}

func (a *spanAgg) calls() float64 {
	if a == nil {
		return 0
	}
	return float64(a.count)
}

func (a *spanAgg) meanNS() float64 {
	if a == nil || a.timed == 0 {
		return 0
	}
	return float64(a.sumNS) / float64(a.timed)
}

func (a *spanAgg) percentileNS(q float64) float64 {
	if a == nil {
		return 0
	}
	xs := make([]float64, len(a.samples))
	for i, s := range a.samples {
		xs[i] = float64(s)
	}
	return percentile(xs, q)
}

// maxKeptSpans bounds the trace file; totals cover every span regardless.
const maxKeptSpans = 50000

// tracer collects spans; see hotSpan for the one lock-free path.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	kept  []span
	agg   map[string]*spanAgg
	names map[string]int // job name -> index in the generated mix
	jobOf map[int]int    // scheduler job id -> index in the generated mix
	opOf  map[int]int    // mix index -> ops journaled so far

	// active gates the journal wrapper, which also sees warm-up traffic.
	active atomic.Bool
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		agg:   make(map[string]*spanAgg),
		names: make(map[string]int),
		jobOf: make(map[int]int),
		opOf:  make(map[int]int),
	}
}

// beginRequests readies the request bookkeeping for one round's mix.
func (t *tracer) beginRequests(names []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.names = make(map[string]int, len(names))
	for i, n := range names {
		t.names[n] = i
	}
	t.jobOf = make(map[int]int)
	t.opOf = make(map[int]int)
}

func (t *tracer) aggFor(name string) *spanAgg {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	return a
}

// add records one finished span under the lock.
func (t *tracer) add(name, parent, req string, start, end time.Time) {
	d := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	a := t.aggFor(name)
	a.count++
	a.timed++
	a.sumNS += d
	a.samples = append(a.samples, d)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{
			Name: name, StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
			Parent: parent, Req: req,
		})
	}
	t.mu.Unlock()
}

func reqID(job, op int) string {
	return strconv.Itoa(job) + "/" + strconv.Itoa(op)
}

// request records one client call: the root span of request (job, op#).
func (t *tracer) request(kind string, job, op int, start, end time.Time) {
	t.add("reshape.call/"+kind, "", reqID(job, op), start, end)
}

// bindJob tells the journal wrapper which generated job a scheduler id is.
func (t *tracer) bindJob(id, job int) {
	t.mu.Lock()
	t.jobOf[id] = job
	t.mu.Unlock()
}

// journal wraps the core's journal hook. A driver has one call in flight per
// job and every mutating call journals exactly one op, so counting a job's
// journaled ops recovers the client's op# without passing it over the wire.
// Ops journaled while the tracer is inactive (warm-up) are not recorded.
func (t *tracer) journal(next scheduler.JournalFunc) scheduler.JournalFunc {
	return func(op scheduler.Op) error {
		start := time.Now()
		err := next(op)
		end := time.Now()
		if !t.active.Load() {
			return err
		}
		t.mu.Lock()
		job, known := t.jobOf[op.JobID]
		if op.Kind == scheduler.OpSubmit {
			job, known = t.names[op.Spec.Name]
		}
		n := t.opOf[job]
		t.opOf[job] = n + 1
		t.mu.Unlock()
		req := ""
		if known {
			req = reqID(job, n)
		}
		t.add("durability.append", "reshape.call/"+opCallKind(op.Kind), req, start, end)
		return err
	}
}

func opCallKind(k scheduler.OpKind) string {
	switch k {
	case scheduler.OpSubmit:
		return "submit"
	case scheduler.OpContact:
		return "contact"
	case scheduler.OpResizeComplete:
		return "resize-complete"
	default:
		return "job-end"
	}
}

// hotSpan records a single-threaded inner loop (the arbiter or the policy
// under the simulator) without the tracer's lock or a kept span per call. It
// counts every call and times one in every: an arbiter call takes tens of
// microseconds and is timed each time; the published policy decides in a
// fraction of one, 900000 times a round, and is timed 1 in 64.
type hotSpan struct {
	agg   *spanAgg
	every int64
}

func (t *tracer) hot(name string, every int64) *hotSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &hotSpan{agg: t.aggFor(name), every: every}
}

// begin counts a call and says whether it is one to time.
func (h *hotSpan) begin() (start time.Time, timed bool) {
	h.agg.count++
	if h.agg.count%h.every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (h *hotSpan) end(start time.Time, timed bool) {
	if !timed {
		return
	}
	d := time.Since(start).Nanoseconds()
	h.agg.timed++
	h.agg.sumNS += d
	h.agg.samples = append(h.agg.samples, d)
}

// tracedArbiter times Decide on whatever arbiter it wraps. The wrapper types
// below add Planner and StartPicker only when the inner arbiter has them:
// Core discovers both by type assertion, so a wrapper that hid one would
// silently turn sim-rebalance or sim-fairshare into a different scheduler.
type tracedArbiter struct {
	inner  scheduler.Arbiter
	decide *hotSpan
}

func (a *tracedArbiter) Name() string { return a.inner.Name() }

func (a *tracedArbiter) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	t0, timed := a.decide.begin()
	d := a.inner.Decide(snap)
	a.decide.end(t0, timed)
	return d
}

// tracedPolicy times the published single-job policy, which decides on the
// path that has no arbiter installed.
type tracedPolicy struct {
	inner  scheduler.Policy
	decide *hotSpan
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Decide(in scheduler.RemapInput) scheduler.Decision {
	t0, timed := p.decide.begin()
	d := p.inner.Decide(in)
	p.decide.end(t0, timed)
	return d
}

type tracedPlanner struct {
	*tracedArbiter
	tr *tracer
}

func (a tracedPlanner) Rebalance(snap scheduler.ClusterSnapshot) {
	t0 := time.Now()
	a.inner.(scheduler.Planner).Rebalance(snap)
	a.tr.add("rebalance.plan", "simcluster.run", "", t0, time.Now())
}

type tracedPicker struct {
	*tracedArbiter
	pick *hotSpan
}

func (a tracedPicker) PickStart(snap scheduler.StartSnapshot) int {
	t0, timed := a.pick.begin()
	i := a.inner.(scheduler.StartPicker).PickStart(snap)
	a.pick.end(t0, timed)
	return i
}

// traceArbiter wraps arb so its calls are timed, keeping its optional
// interfaces. No arbiter in this repository is both Planner and StartPicker.
func (t *tracer) traceArbiter(arb scheduler.Arbiter) scheduler.Arbiter {
	base := &tracedArbiter{inner: arb, decide: t.hot("arbiter.decide", 1)}
	_, plans := arb.(scheduler.Planner)
	_, picks := arb.(scheduler.StartPicker)
	switch {
	case plans:
		return tracedPlanner{tracedArbiter: base, tr: t}
	case picks:
		return tracedPicker{tracedArbiter: base, pick: t.hot("fairshare.pick_start", 1)}
	default:
		return base
	}
}

// write dumps the kept spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": t.kept, "kept": len(t.kept), "recorded": t.recorded()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recorded counts every span seen, kept or not. Callers hold t.mu.
func (t *tracer) recorded() int64 {
	var n int64
	for _, a := range t.agg {
		n += a.count
	}
	return n
}

func (t *tracer) spans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded()
}

// get returns the totals for one span name (nil when never recorded).
func (t *tracer) get(name string) *spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agg[name]
}
