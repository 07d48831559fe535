package matrix

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// MulLU recomposes L*U from a factored matrix (LUFactor output) into out,
// used to verify factorizations.
func MulLU(n int, lu, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var lik float64
				if k == i {
					lik = 1
				} else {
					lik = lu[i*n+k]
				}
				s += lik * lu[k*n+j]
			}
			out[i*n+j] = s
		}
	}
}

// MaxAbsDiff returns max_i |a[i]-b[i]|; the slices must have equal length.
func MaxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// FFT performs an in-place radix-2 FFT of x with a plan of its own. The
// length must be a power of two. inverse selects the inverse transform
// (including the 1/n scaling).
func FFT(x []complex128, inverse bool) error {
	p, err := NewFFTPlan(len(x), inverse)
	if err != nil {
		return err
	}
	return p.Transform(x)
}

func randMat(rng *rand.Rand, m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

// naiveGemm is the reference triple loop in (i, j, l) order: C += A * B,
// or C -= A * B when sub is set, with C at row stride ldc. Each element
// takes its products one by one in l order, skipping a zero A element,
// which is the per-element operation order Gemm and GemmSub promise.
func naiveGemm(m, k, n int, a, b, c []float64, ldc int, sub bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				if a[i*k+l] == 0 {
					continue
				}
				if sub {
					c[i*ldc+j] -= a[i*k+l] * b[l*n+j]
				} else {
					c[i*ldc+j] += a[i*k+l] * b[l*n+j]
				}
			}
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {8, 8, 8}, {7, 2, 9}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c1 := randMat(rng, m, n)
		c2 := append([]float64{}, c1...)
		Gemm(m, k, n, a, b, c1, n)
		naiveGemm(m, k, n, a, b, c2, n, false)
		if d := MaxAbsDiff(c1, c2); d > 1e-12 {
			t.Errorf("dims %v: diff %v", dims, d)
		}
	}
}

func TestGemmSubInvertsGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 5, 6, 4
	a, b := randMat(rng, m, k), randMat(rng, k, n)
	c := randMat(rng, m, n)
	orig := append([]float64{}, c...)
	Gemm(m, k, n, a, b, c, n)
	GemmSub(m, k, n, a, b, c, n)
	if d := MaxAbsDiff(c, orig); d > 1e-12 {
		t.Errorf("Gemm then GemmSub drifted by %v", d)
	}
}

// TestGemmStridedMatchesNaive holds Gemm and GemmSub to the reference bit
// for bit on blocks inside wider matrices (ldc > n), with k not a multiple
// of four, zeros in A that split some groups of four and not others, a row
// of A with no nonzero, and -0 in C, which adding a skipped 0*b can turn
// into +0.
func TestGemmStridedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][4]int{{1, 1, 1, 1}, {3, 4, 5, 5}, {5, 7, 3, 11}, {8, 9, 8, 13}, {6, 16, 16, 40}, {4, 13, 1, 2}} {
		m, k, n, ldc := dims[0], dims[1], dims[2], dims[3]
		for _, sub := range []bool{false, true} {
			a, b := randMat(rng, m, k), randMat(rng, k, n)
			for i := range a {
				if i < k || rng.Intn(5) == 0 {
					a[i] = 0 // row 0 of A is all zeros
				}
			}
			b[rng.Intn(len(b))] = 0
			c1 := randMat(rng, m, ldc)
			for i := range c1 {
				if rng.Intn(3) == 0 {
					c1[i] = math.Copysign(0, -1)
				}
			}
			c2 := append([]float64{}, c1...)
			if sub {
				GemmSub(m, k, n, a, b, c1, ldc)
			} else {
				Gemm(m, k, n, a, b, c1, ldc)
			}
			naiveGemm(m, k, n, a, b, c2, ldc, sub)
			for i := range c1 {
				if math.Float64bits(c1[i]) != math.Float64bits(c2[i]) {
					t.Fatalf("dims %v sub=%v: c[%d] = %v, reference %v", dims, sub, i, c1[i], c2[i])
				}
			}
		}
	}
}

func TestGemv(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6} // 2x3
	x := []float64{1, 1, 1}
	y := []float64{10, 20}
	Gemv(2, 3, a, x, y)
	if y[0] != 16 || y[1] != 35 {
		t.Errorf("Gemv got %v", y)
	}
}

// diagDominant makes a random diagonally dominant matrix (guaranteed
// unpivoted-LU-factorable).
func diagDominant(rng *rand.Rand, n int) []float64 {
	a := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a[i*n+j])
		}
		a[i*n+i] = s + 1
	}
	return a
}

func TestLUFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := diagDominant(rng, n)
		orig := append([]float64{}, a...)
		if err := LUFactor(n, a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := make([]float64, n*n)
		MulLU(n, a, recon)
		if d := MaxAbsDiff(recon, orig); d > 1e-8*float64(n) {
			t.Errorf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestLUFactorZeroPivot(t *testing.T) {
	a := []float64{0, 1, 1, 0}
	if err := LUFactor(2, a); err == nil {
		t.Error("zero pivot not detected")
	}
}

func TestLUFactorProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%12) + 1
		rng := rand.New(rand.NewSource(seed))
		a := diagDominant(rng, n)
		orig := append([]float64{}, a...)
		if err := LUFactor(n, a); err != nil {
			return false
		}
		recon := make([]float64, n*n)
		MulLU(n, a, recon)
		return MaxAbsDiff(recon, orig) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTrsmRightUpper(t *testing.T) {
	// Solve B_new * U = B for random U (upper of factored diag block).
	rng := rand.New(rand.NewSource(4))
	n, m := 4, 3
	lu := diagDominant(rng, n)
	if err := LUFactor(n, lu); err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, m, n)
	orig := append([]float64{}, b...)
	TrsmRightUpper(m, n, lu, b)
	// b * U must equal orig; extract U from lu.
	u := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u[i*n+j] = lu[i*n+j]
		}
	}
	check := make([]float64, m*n)
	Gemm(m, n, n, b, u, check, n)
	if d := MaxAbsDiff(check, orig); d > 1e-9 {
		t.Errorf("TrsmRightUpper residual %v", d)
	}
}

func TestTrsmLeftLowerUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, m := 4, 5
	lu := diagDominant(rng, n)
	if err := LUFactor(n, lu); err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, n, m)
	orig := append([]float64{}, b...)
	TrsmLeftLowerUnit(n, m, lu, b)
	// L * b must equal orig; extract unit-lower L.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		l[i*n+i] = 1
		for j := 0; j < i; j++ {
			l[i*n+j] = lu[i*n+j]
		}
	}
	check := make([]float64, n*m)
	Gemm(n, n, m, l, b, check, m)
	if d := MaxAbsDiff(check, orig); d > 1e-9 {
		t.Errorf("TrsmLeftLowerUnit residual %v", d)
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// FFT of a constant signal is an impulse at bin 0.
	x := make([]complex128, 8)
	for i := range x {
		x[i] = 1
	}
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(x[0])-8) > 1e-12 {
		t.Errorf("bin 0 = %v", x[0])
	}
	for i := 1; i < 8; i++ {
		if math.Abs(real(x[i])) > 1e-12 || math.Abs(imag(x[i])) > 1e-12 {
			t.Errorf("bin %d = %v", i, x[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 16
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 3 * float64(i) / n
		x[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	if err := FFT(x, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i == 3 {
			want = n
		}
		if math.Abs(real(x[i])-want) > 1e-9 || math.Abs(imag(x[i])) > 1e-9 {
			t.Errorf("bin %d = %v", i, x[i])
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64, rawLog uint8) bool {
		n := 1 << (rawLog%8 + 1)
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if FFT(x, false) != nil || FFT(x, true) != nil {
			return false
		}
		for i := range x {
			if cmag(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fftRecurrence is the butterfly loop FFTPlan replaced, which recomputed
// every stage's twiddles for every group with w *= wl.
func fftRecurrence(x []complex128, inverse bool) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// TestFFTTableMatchesRecurrence holds the tabulated transform to the
// recurrence loop bit for bit, for every power of two up to 1024 in both
// directions, through FFT and through one plan reused across inputs.
func TestFFTTableMatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 1024; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			plan, err := NewFFTPlan(n, inverse)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want := append([]complex128{}, x...)
				fftRecurrence(want, inverse)
				viaFFT := append([]complex128{}, x...)
				if err := FFT(viaFFT, inverse); err != nil {
					t.Fatal(err)
				}
				if err := plan.Transform(x); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for _, got := range []complex128{x[i], viaFFT[i]} {
						if math.Float64bits(real(got)) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(got)) != math.Float64bits(imag(want[i])) {
							t.Fatalf("n=%d inverse=%v: bin %d = %v, recurrence %v", n, inverse, i, got, want[i])
						}
					}
				}
			}
		}
	}
}

func cmag(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 12), false); err == nil {
		t.Error("length 12 accepted")
	}
	if err := FFT(nil, false); err == nil {
		t.Error("empty accepted")
	}
	plan, err := NewFFTPlan(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Transform(make([]complex128, 16)); err == nil {
		t.Error("length 16 accepted by a plan for 8")
	}
}
