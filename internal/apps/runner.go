package apps

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/pkg/reshape"
)

// Config describes one application instance, mirroring the paper's Table 1
// workloads.
type Config struct {
	App        string // "lu", "mm", "jacobi", "fft", "mw", "cg"
	N          int    // problem size (matrix dimension / FFT size)
	NB         int    // block size (square for 2-D apps; row block for 1-D)
	Iterations int    // outer iterations per job (10 in the paper)

	// Jacobi / CG: inner sweeps (CG steps) per outer iteration.
	Sweeps int
	// Master-worker: work units per outer iteration, chunking, unit cost.
	MWUnits    int
	MWChunk    int
	MWUnitWork int
}

// arrayApps are the applications built around distributed global arrays;
// they require positive problem and block sizes.
var arrayApps = map[string]bool{"lu": true, "mm": true, "jacobi": true, "fft": true, "cg": true}

// Validate checks a configuration without building it: the application
// must be known, the iteration count positive, and array-based apps need
// positive problem and block sizes (the FFT additionally a power-of-two
// size, which its kernel's butterfly requires).
func (c Config) Validate() error {
	switch c.App {
	case "lu", "mm", "jacobi", "fft", "mw", "cg":
	default:
		return fmt.Errorf("apps: unknown application %q", c.App)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("apps: %s: iterations must be positive, got %d", c.App, c.Iterations)
	}
	if arrayApps[c.App] {
		if c.N <= 0 {
			return fmt.Errorf("apps: %s: problem size must be positive, got %d", c.App, c.N)
		}
		if c.NB <= 0 {
			return fmt.Errorf("apps: %s: block size must be positive, got %d", c.App, c.NB)
		}
	}
	if c.App == "fft" && c.N&(c.N-1) != 0 {
		return fmt.Errorf("apps: fft: size must be a power of two, got %d", c.N)
	}
	return nil
}

// normalized fills in the defaulted tuning knobs.
func (c Config) normalized() Config {
	if c.Sweeps <= 0 {
		switch c.App {
		case "jacobi":
			c.Sweeps = 3
		case "cg":
			c.Sweeps = 4
		}
	}
	if c.MWUnits <= 0 {
		c.MWUnits = 1000
	}
	if c.MWChunk <= 0 {
		c.MWChunk = 50
	}
	if c.MWUnitWork <= 0 {
		c.MWUnitWork = 200
	}
	return c
}

// Build validates a configuration and constructs its application for
// reshape.Run. Every app registers its global arrays and replicated
// vectors in Init and performs one outer iteration per Iterate; the SDK
// runner owns the loop, resize points and iteration accounting that the
// pre-SDK worker closures duplicated.
func Build(cfg Config) (reshape.App, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	switch cfg.App {
	case "lu":
		return luApp{cfg: cfg}, nil
	case "mm":
		return mmApp{cfg: cfg}, nil
	case "jacobi":
		return jacobiApp{cfg: cfg}, nil
	case "fft":
		return fftApp{cfg: cfg}, nil
	case "mw":
		return mwApp{cfg: cfg}, nil
	default: // "cg" — Validate already rejected anything else
		return cgApp{cfg: cfg}, nil
	}
}

// luEntry is the diagonally dominant test matrix used by the LU and CG
// workloads.
func luEntry(n int) func(i, j int) float64 {
	return func(i, j int) float64 {
		v := 1.0 / (1.0 + math.Abs(float64(i-j)))
		if i == j {
			v += float64(n)
		}
		return v
	}
}

// luApp factors a fresh copy of a diagonally dominant matrix every
// iteration, the paper's "ten LU factorizations" per job.
type luApp struct{ cfg Config }

func (a luApp) Init(rc *reshape.Context) error {
	arr := rc.RegisterArray("A", a.cfg.N, a.cfg.N, a.cfg.NB, a.cfg.NB)
	rc.FillArray(arr, luEntry(a.cfg.N))
	return nil
}

func (a luApp) Iterate(rc *reshape.Context) error {
	arr, ok := rc.Array("A")
	if !ok {
		return fmt.Errorf("apps: lu: array A missing")
	}
	// DistLU copies every panel it broadcasts out of work, so once it
	// returns nothing refers to work and the iteration can recycle it.
	work := mpi.GetFloats(len(arr.Data))
	copy(work, arr.Data)
	err := DistLU(rc.Grid(), arr.LayoutFor(rc.Topo()), work)
	mpi.PutFloats(work)
	return err
}

// mmApp multiplies two distributed matrices (SUMMA) per iteration.
type mmApp struct{ cfg Config }

func (a mmApp) Init(rc *reshape.Context) error {
	n, nb := a.cfg.N, a.cfg.NB
	A := rc.RegisterArray("A", n, n, nb, nb)
	B := rc.RegisterArray("B", n, n, nb, nb)
	C := rc.RegisterArray("C", n, n, nb, nb)
	rc.FillArray(A, func(i, j int) float64 { return math.Sin(float64(i*7 + j)) })
	rc.FillArray(B, func(i, j int) float64 { return math.Cos(float64(i + j*5)) })
	rc.FillArray(C, func(i, j int) float64 { return 0 })
	return nil
}

func (a mmApp) Iterate(rc *reshape.Context) error {
	A, _ := rc.Array("A")
	B, _ := rc.Array("B")
	C, _ := rc.Array("C")
	if A == nil || B == nil || C == nil {
		return fmt.Errorf("apps: mm: arrays missing")
	}
	return DistMatMul(rc.Grid(), A.LayoutFor(rc.Topo()), A.Data, B.Data, C.Data)
}

// jacobiApp runs cfg.Sweeps Jacobi sweeps on a row-distributed system per
// iteration, with the solution vector replicated on every rank.
type jacobiApp struct{ cfg Config }

func (a jacobiApp) Init(rc *reshape.Context) error {
	n, nb := a.cfg.N, a.cfg.NB
	A := rc.RegisterArray("A", n, n, nb, n)
	bv := rc.RegisterArray("b", n, 1, nb, 1)
	rc.FillArray(A, func(i, j int) float64 {
		if i == j {
			return float64(n)
		}
		return 1.0 / (1.0 + float64((i+j)%7))
	})
	rc.FillArray(bv, func(i, j int) float64 { return 1 + float64(i%5) })
	rc.SetReplicated("x", make([]float64, n))
	return nil
}

func (a jacobiApp) Iterate(rc *reshape.Context) error {
	A, _ := rc.Array("A")
	bv, _ := rc.Array("b")
	if A == nil || bv == nil {
		return fmt.Errorf("apps: jacobi: arrays missing")
	}
	x := rc.Replicated("x")
	if x == nil {
		return fmt.Errorf("apps: jacobi: replicated x missing")
	}
	res, err := JacobiSweeps(rc.Grid(), A.LayoutFor(rc.Topo()), A.Data, bv.Data, x, a.cfg.Sweeps)
	if err != nil {
		return err
	}
	rc.SetReplicated("residual", []float64{res})
	return nil
}

// fftApp forward-and-inverse transforms a distributed complex image per
// iteration (one "image transformation" of the paper's FFT workload).
type fftApp struct{ cfg Config }

func (a fftApp) Init(rc *reshape.Context) error {
	n := a.cfg.N
	img := rc.RegisterArray("img", n, 2*n, a.cfg.NB, 2*n)
	rc.FillArray(img, func(i, j int) float64 {
		if j%2 == 1 {
			return 0 // imaginary part
		}
		return math.Sin(float64(i)) * math.Cos(float64(j/2))
	})
	return nil
}

func (a fftApp) Iterate(rc *reshape.Context) error {
	img, ok := rc.Array("img")
	if !ok {
		return fmt.Errorf("apps: fft: array img missing")
	}
	l := img.LayoutFor(rc.Topo())
	if err := FFT2D(rc.Grid(), l, img.Data, false); err != nil {
		return err
	}
	return FFT2D(rc.Grid(), l, img.Data, true)
}

// mwApp distributes cfg.MWUnits work units from rank 0 to the workers per
// iteration; it registers no global state, so resizes only change the
// worker pool.
type mwApp struct{ cfg Config }

func (a mwApp) Init(rc *reshape.Context) error { return nil }

func (a mwApp) Iterate(rc *reshape.Context) error {
	MasterWorkerRound(rc.Grid(), a.cfg.MWUnits, a.cfg.MWChunk, a.cfg.MWUnitWork)
	return nil
}

// cgApp runs cfg.Sweeps conjugate-gradient steps per iteration on a 2-D
// distributed SPD matrix with replicated b and x. It extends the paper's
// workload set with a Krylov solver, per the future-work direction of
// supporting a wider array of distributed data structures.
type cgApp struct{ cfg Config }

func (a cgApp) Init(rc *reshape.Context) error {
	n, nb := a.cfg.N, a.cfg.NB
	A := rc.RegisterArray("A", n, n, nb, nb)
	// SPD: symmetric off-diagonal decay with dominant diagonal.
	rc.FillArray(A, luEntry(n))
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	rc.SetReplicated("b", b)
	rc.SetReplicated("x", make([]float64, n))
	return nil
}

func (a cgApp) Iterate(rc *reshape.Context) error {
	A, ok := rc.Array("A")
	if !ok {
		return fmt.Errorf("apps: cg: array A missing")
	}
	b := rc.Replicated("b")
	x := rc.Replicated("x")
	if b == nil || x == nil {
		return fmt.Errorf("apps: cg: replicated vectors missing")
	}
	res, err := DistCG(rc.Grid(), A.LayoutFor(rc.Topo()), A.Data, b, x, a.cfg.Sweeps)
	if err != nil {
		return err
	}
	rc.SetReplicated("residual", []float64{res})
	return nil
}
