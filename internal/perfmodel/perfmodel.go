package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/grid"
)

// Params holds the cluster and per-application calibration constants.
type Params struct {
	// Bandwidth is the effective link bandwidth in bytes/s (GigE).
	Bandwidth float64
	// DiskBandwidth is the single-node checkpoint staging rate in bytes/s.
	DiskBandwidth float64
	// Latency is the per-message software overhead in seconds.
	Latency float64
	// Contention is the per-processor linear slowdown term (seconds per
	// processor per iteration) capturing network contention at scale.
	Contention float64
	// AspectPenalty scales the communication term of 2-D apps by
	// (1 + AspectPenalty*(aspect-1)), making non-square grids slower.
	AspectPenalty float64

	// Per-application effective flop rates (flop/s per processor).
	LUFlops, MMFlops, JacobiFlops, FFTFlops float64
	// Communication coefficients of the 2-D dense kernels.
	LUComm, MMComm float64
	// Jacobi: inner sweeps per outer iteration and the per-sweep vector
	// exchange cost factor.
	JacobiInnerSweeps int
	// FFT: transform repetitions per outer iteration (the "image
	// transformation" batch).
	FFTRepeats int
	// RedistCommExp is the exponent a in  bytes/(BW * min(p,q)^a)  of the
	// redistribution model.
	RedistCommExp float64
	// RedistBandwidth is the measured effective redistribution rate in
	// bytes/s (total array volume over transfer time, local copies
	// included). Zero means uncalibrated: RedistTime falls back to the
	// network Bandwidth. Kept separate from Bandwidth so calibration from
	// measured redistributions cannot skew the iteration and checkpoint
	// models, which describe pure network traffic.
	RedistBandwidth float64
}

// SystemX returns the calibration used throughout the reproduction.
func SystemX() *Params {
	return &Params{
		Bandwidth:         1.0e8, // ~100 MB/s effective GigE
		DiskBandwidth:     5.0e7, // ~50 MB/s 2007-era staging disk
		Latency:           1.0e-4,
		Contention:        1.7,
		AspectPenalty:     0.1,
		LUFlops:           6.0e9,
		MMFlops:           2.2e9,
		JacobiFlops:       2.5e9,
		FFTFlops:          2.0e9,
		LUComm:            3.65,
		MMComm:            4.0,
		JacobiInnerSweeps: 25000,
		FFTRepeats:        8,
		RedistCommExp:     0.5,
	}
}

// AppModel describes one application instance for the simulator.
type AppModel struct {
	App string // "lu", "mm", "jacobi", "fft", "mw"
	N   int
	// MWWorkSeconds is the total sequential work per outer iteration of the
	// master-worker app (its units are fixed-time, so only the product
	// matters).
	MWWorkSeconds float64
}

// DataBytes returns the size of the application's redistributable global
// state in bytes.
func (m AppModel) DataBytes() int64 {
	n := int64(m.N)
	switch m.App {
	case "lu":
		return n * n * 8
	case "mm":
		return 3 * n * n * 8 // A, B, C
	case "jacobi":
		return n*n*8 + n*8
	case "fft":
		return n * n * 16 // complex
	case "mw":
		return 0
	default:
		return 0
	}
}

// aspect returns the communication penalty factor for a topology.
func (p *Params) aspect(t grid.Topology) float64 {
	return 1 + p.AspectPenalty*(t.Aspect()-1)
}

// IterTime predicts one outer iteration's duration in seconds on the given
// topology.
func (p *Params) IterTime(m AppModel, t grid.Topology) (float64, error) {
	procs := float64(t.Count())
	if procs < 1 {
		return 0, fmt.Errorf("perfmodel: empty topology %v", t)
	}
	n := float64(m.N)
	switch m.App {
	case "lu":
		comp := (2.0 / 3.0) * n * n * n / (procs * p.LUFlops)
		comm := p.LUComm * n * n * 8 / (p.Bandwidth * math.Sqrt(procs)) * p.aspect(t)
		return comp + comm + p.Contention*procs, nil
	case "mm":
		comp := 2 * n * n * n / (procs * p.MMFlops)
		comm := p.MMComm * n * n * 8 / (p.Bandwidth * math.Sqrt(procs)) * p.aspect(t)
		return comp + comm + p.Contention*procs, nil
	case "jacobi":
		s := float64(p.JacobiInnerSweeps)
		comp := s * 2 * n * n / (procs * p.JacobiFlops)
		comm := s * (n * 8 / p.Bandwidth) * (1 + 0.1*math.Log2(procs))
		return comp + comm, nil
	case "fft":
		r := float64(p.FFTRepeats)
		comp := r * 4 * 5 * n * n * math.Log2(n) / (procs * p.FFTFlops)
		comm := 0.0
		if procs > 1 {
			comm = r * 4 * n * n * 16 * (procs - 1) / (procs * procs * p.Bandwidth)
		}
		return comp + comm, nil
	case "mw":
		if t.Count() == 1 {
			return m.MWWorkSeconds, nil
		}
		// Rank 0 is the master; workers process fixed-time units.
		return m.MWWorkSeconds / (procs - 1), nil
	default:
		return 0, fmt.Errorf("perfmodel: unknown app %q", m.App)
	}
}

// RedistTime predicts the cost of redistributing the application's global
// data between two topologies with the message-passing algorithm: the
// per-processor data volume dominates, so cost falls as either side grows
// (Figure 2(b)), plus per-step message latencies.
func (p *Params) RedistTime(m AppModel, from, to grid.Topology) float64 {
	bytes := float64(m.DataBytes())
	if bytes == 0 || from == to {
		return 0
	}
	bw := p.Bandwidth
	if p.RedistBandwidth > 0 {
		bw = p.RedistBandwidth
	}
	minP := math.Min(float64(from.Count()), float64(to.Count()))
	steps := float64(grid.CirculantSteps(from, to))
	return bytes/(bw*math.Pow(minP, p.RedistCommExp)) + steps*p.Latency
}

// CheckpointTime predicts the file-based checkpoint/restart alternative:
// all data funnels through one node, is written to and read back from disk,
// and is scattered again — the baseline of Figure 3(b). The root exchanges
// one message with every rank of the old grid on the gather and every rank
// of the new grid on the scatter, so the baseline responds to topology:
// restarting onto more processors costs more message latency.
func (p *Params) CheckpointTime(m AppModel, from, to grid.Topology) float64 {
	bytes := float64(m.DataBytes())
	if bytes == 0 {
		return 0
	}
	gatherScatter := 2 * bytes / p.Bandwidth
	diskIO := 2 * bytes / p.DiskBandwidth
	msgLatency := p.Latency * float64(from.Count()+to.Count())
	return gatherScatter + diskIO + msgLatency
}

// RedistObservation is one measured redistribution, reported by the resize
// library after a real (goroutine-rank) execution of the fused engine. It
// carries exactly the quantities the RedistTime model predicts from.
type RedistObservation struct {
	// Bytes that crossed the network (local copies excluded).
	Bytes float64
	// CopiedBytes moved by local copy on overlapping grid pairs.
	CopiedBytes float64
	// MinProcs is min(|from|, |to|) of the grid pair.
	MinProcs int
	// Steps is the number of schedule steps executed.
	Steps int
	// Seconds is the measured wall-clock redistribution time.
	Seconds float64
}

// CalibrateRedist refits RedistBandwidth from measured redistributions,
// inverting the RedistTime model
//
//	seconds = bytes/(BW * minP^a) + steps*Latency
//
// per observation and taking the median estimate (robust to the odd
// scheduler-noise outlier). RedistTime predicts from the application's
// total data volume, so the inversion uses Bytes + CopiedBytes — the
// calibrated rate is the effective speed at which the whole array moved,
// local copies included, and the refit model reproduces the very
// observations it was fitted to. Only RedistBandwidth is touched: the
// network Bandwidth driving the iteration and checkpoint models is left
// alone. Observations with no network traffic or with a measured time not
// exceeding the pure-latency term are skipped. It returns the number of
// observations used; zero leaves the params unchanged.
//
//lint:allow testonly oracle: the fit Report.RedistObservations feeds; TestCalibrateRedistRecoversBandwidth, TestCalibrateRedistSkipsDegenerate and TestRedistObservationsRecorded hold it to measured redistributions
func (p *Params) CalibrateRedist(obs []RedistObservation) int {
	var ests []float64
	for _, o := range obs {
		transfer := o.Seconds - float64(o.Steps)*p.Latency
		if o.Bytes <= 0 || o.MinProcs < 1 || transfer <= 0 {
			continue
		}
		ests = append(ests, (o.Bytes+o.CopiedBytes)/(transfer*math.Pow(float64(o.MinProcs), p.RedistCommExp)))
	}
	if len(ests) == 0 {
		return 0
	}
	sort.Float64s(ests)
	mid := len(ests) / 2
	if len(ests)%2 == 1 {
		p.RedistBandwidth = ests[mid]
	} else {
		p.RedistBandwidth = (ests[mid-1] + ests[mid]) / 2
	}
	return len(ests)
}
