package scheduler

import (
	"slices"

	"repro/internal/grid"
)

// Visit is one contiguous stay of a job on a particular processor
// configuration, with the iteration times observed there.
type Visit struct {
	Topo      grid.Topology
	IterTimes []float64
}

// Last returns the most recent iteration time of the visit (0 if none).
func (v *Visit) Last() float64 {
	if len(v.IterTimes) == 0 {
		return 0
	}
	return v.IterTimes[len(v.IterTimes)-1]
}

// Mean returns the mean iteration time of the visit (0 if none).
func (v *Visit) Mean() float64 {
	if len(v.IterTimes) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range v.IterTimes {
		s += t
	}
	return s / float64(len(v.IterTimes))
}

// Profile is the Performance Profiler's per-job record: the chronological
// list of configurations the job has run on (with observed iteration times)
// and the redistribution costs measured between configurations. Shrink
// points — configurations the job may legally shrink back to — are exactly
// the previously visited smaller configurations.
//
// A job's profile shares the job's allocation, and its iteration times
// share one backing array, which the first iteration reserves for as many
// as the spec declares (at most maxReservedIters). Each visit's IterTimes is
// a subslice of that array: the open visit's capacity runs to the end of
// the reservation, and opening the next visit clips the previous one to its
// length and hands the new one the unused tail, so recording an iteration
// allocates nothing until the reservation runs out. A profile without a
// reservation (NewProfile, a restored or cloned one, whose slices have
// exact length) grows by ordinary append. Redist stays nil until the first
// RecordRedist.
type Profile struct {
	Visits  []Visit
	Redist  map[string]float64 // "RxC->RxC" -> last observed redistribution seconds
	stamp   uint64             // see Stamp; not persisted: a restored or cloned profile restarts at 0
	reserve int                // iteration times the first visit reserves room for
}

// maxReservedIters caps a job's reservation. The count comes from the
// client's JobSpec.Iterations, unchecked; a job that runs past its
// reservation appends as a profile without one does.
const maxReservedIters = 1 << 12

// Stamp returns the profile's change stamp, which RecordIteration and
// RecordRedist, the only mutators, advance: what a reader derives from the
// profile holds while the stamp does. Stamps of two profiles do not compare.
func (p *Profile) Stamp() uint64 { return p.stamp }

// NewProfile returns an empty profile whose Redist map is ready for direct
// writes.
func NewProfile() *Profile {
	return &Profile{Redist: make(map[string]float64)}
}

// RecordIteration appends an iteration time observed on topo, opening a new
// visit if the configuration changed.
func (p *Profile) RecordIteration(topo grid.Topology, iterTime float64) {
	n := len(p.Visits)
	if n == 0 || p.Visits[n-1].Topo != topo {
		var tail []float64
		if n > 0 {
			prev := &p.Visits[n-1]
			l := len(prev.IterTimes)
			tail, prev.IterTimes = prev.IterTimes[l:l], prev.IterTimes[:l:l]
		} else if p.reserve > 0 {
			tail = make([]float64, 0, p.reserve)
		}
		p.Visits = append(p.Visits, Visit{Topo: topo, IterTimes: tail})
		n++
	}
	p.Visits[n-1].IterTimes = append(p.Visits[n-1].IterTimes, iterTime)
	p.stamp++
}

// RecordRedist stores an observed redistribution cost between two
// configurations.
func (p *Profile) RecordRedist(from, to grid.Topology, seconds float64) {
	if p.Redist == nil {
		p.Redist = make(map[string]float64)
	}
	var buf [64]byte
	p.Redist[string(appendRedistKey(buf[:0], from, to))] = seconds
	p.stamp++
}

// RedistCost returns the recorded redistribution cost between two
// configurations, if any. The planning tick asks for every rung of every
// running job, so the lookup neither formats nor allocates.
func (p *Profile) RedistCost(from, to grid.Topology) (float64, bool) {
	if len(p.Redist) == 0 {
		return 0, false
	}
	var buf [64]byte
	v, ok := p.Redist[string(appendRedistKey(buf[:0], from, to))]
	return v, ok
}

// appendRedistKey appends the Redist key "RxC->RxC" to b. Snapshots persist
// these keys, so the bytes are frozen (TestRedistKeyMatchesFmt).
func appendRedistKey(b []byte, from, to grid.Topology) []byte {
	b = from.Append(b)
	b = append(b, "->"...)
	return to.Append(b)
}

// Current returns the visit the job is currently in, or nil before the
// first recorded iteration.
func (p *Profile) Current() *Visit {
	if len(p.Visits) == 0 {
		return nil
	}
	return &p.Visits[len(p.Visits)-1]
}

// LastExpansion locates the most recent pair of consecutive visits in which
// the processor count grew, returning (before, after, true). This is the
// transition the Remap Scheduler's improvement test inspects.
func (p *Profile) LastExpansion() (before, after *Visit, ok bool) {
	for i := len(p.Visits) - 1; i > 0; i-- {
		if p.Visits[i].Topo.Count() > p.Visits[i-1].Topo.Count() {
			return &p.Visits[i-1], &p.Visits[i], true
		}
	}
	return nil, nil, false
}

// ShrinkPoints returns the distinct previously visited configurations
// strictly smaller than cur, sorted by descending processor count (the
// least-damaging shrink first). Applications can only shrink to
// configurations on which they have previously run.
func (p *Profile) ShrinkPoints(cur grid.Topology) []grid.Topology {
	return p.AppendShrinkPoints(nil, cur)
}

// AppendShrinkPoints appends ShrinkPoints(cur) to dst, for callers that keep
// the storage (the planning tick asks once per running job).
func (p *Profile) AppendShrinkPoints(dst []grid.Topology, cur grid.Topology) []grid.Topology {
	// Deduplicate by linear scan and order by stable insertion: a job visits
	// a handful of chain configurations, so this beats a map and a
	// sort.Slice per call (the published policy asks at every queue-pressure
	// contact). Equal-Count ties keep first-visited order, which is what
	// sort.Slice's insertion sort gave every list of up to 12 points.
	base := len(dst)
	for _, v := range p.Visits {
		if v.Topo.Count() >= cur.Count() || slices.Contains(dst[base:], v.Topo) {
			continue
		}
		dst = append(dst, v.Topo)
		for i := len(dst) - 1; i > base && dst[i].Count() > dst[i-1].Count(); i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// TimeAt returns the most recent iteration time the job achieved on the
// given configuration, scanning visits from newest to oldest.
func (p *Profile) TimeAt(topo grid.Topology) (float64, bool) {
	for i := len(p.Visits) - 1; i >= 0; i-- {
		if p.Visits[i].Topo == topo && len(p.Visits[i].IterTimes) > 0 {
			return p.Visits[i].Last(), true
		}
	}
	return 0, false
}
