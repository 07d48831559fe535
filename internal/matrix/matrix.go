// Package matrix provides the local dense kernels underneath the
// distributed applications: GEMM, unpivoted LU, triangular solves, the
// matrix-vector product and a radix-2 complex FFT. All matrices are
// dense row-major float64 slices with an explicit column count.
package matrix

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Gemm computes C += A * B for row-major matrices: A is m x k, B is k x n,
// and C is m x n with row stride ldc >= n, so C may be a block of a larger
// matrix updated in place. The loop order (i, l, j) streams B and C rows
// for locality.
//
// Every C element adds its k products in l order, one rounding each, and
// a product whose A element is zero is skipped, not added (it would turn
// a -0 in C into +0). The l loop is unrolled by four, loading and storing
// each C element once per four products; a group of four that holds a
// zero in A takes the one-product-at-a-time path instead. Neither changes
// the result, which is bit-identical to adding the products one by one.
func Gemm(m, k, n int, a, b, c []float64, ldc int) { gemm(m, k, n, a, b, c, ldc, false) }

// GemmSub computes C -= A * B, the trailing-update form used by LU, with
// the operation order and zero skip of Gemm.
func GemmSub(m, k, n int, a, b, c []float64, ldc int) { gemm(m, k, n, a, b, c, ldc, true) }

func gemm(m, k, n int, a, b, c []float64, ldc int, sub bool) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*ldc : i*ldc+n]
		for l := 0; l < k; {
			if l+4 <= k && ai[l] != 0 && ai[l+1] != 0 && ai[l+2] != 0 && ai[l+3] != 0 {
				a0, a1, a2, a3 := ai[l], ai[l+1], ai[l+2], ai[l+3]
				b0 := b[l*n:][:len(ci)]
				b1 := b[(l+1)*n:][:len(ci)]
				b2 := b[(l+2)*n:][:len(ci)]
				b3 := b[(l+3)*n:][:len(ci)]
				if sub {
					for j := range ci {
						ci[j] = ci[j] - a0*b0[j] - a1*b1[j] - a2*b2[j] - a3*b3[j]
					}
				} else {
					for j := range ci {
						ci[j] = ci[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				l += 4
				continue
			}
			for end := min(l+4, k); l < end; l++ {
				ail := ai[l]
				if ail == 0 {
					continue
				}
				bl := b[l*n:][:len(ci)]
				if sub {
					for j := range ci {
						ci[j] -= ail * bl[j]
					}
				} else {
					for j := range ci {
						ci[j] += ail * bl[j]
					}
				}
			}
		}
	}
}

// Gemv computes y += A * x for a row-major m x n matrix.
//
//lint:allow testonly oracle: the serial product TestDistMatVecMatchesSerial, TestDistCGConverges and TestJacobiConvergesToSolution hold the distributed kernels to
func Gemv(m, n int, a, x, y []float64) {
	for i := 0; i < m; i++ {
		ai := a[i*n : (i+1)*n]
		s := 0.0
		for j := 0; j < n; j++ {
			s += ai[j] * x[j]
		}
		y[i] += s
	}
}

// LUFactor performs an in-place unpivoted LU factorization of the n x n
// row-major matrix a: afterwards the strict lower triangle holds L (unit
// diagonal implied) and the upper triangle holds U. It returns an error on a
// zero pivot; callers supply diagonally dominant matrices.
func LUFactor(n int, a []float64) error {
	for k := 0; k < n; k++ {
		pivot := a[k*n+k]
		if pivot == 0 {
			return fmt.Errorf("matrix: zero pivot at %d", k)
		}
		inv := 1 / pivot
		for i := k + 1; i < n; i++ {
			a[i*n+k] *= inv
			lik := a[i*n+k]
			if lik == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= lik * a[k*n+j]
			}
		}
	}
	return nil
}

// TrsmLowerRight solves X * L^T ... no: TrsmRightUpper computes
// B := B * U^{-1} where U is the n x n upper triangle of lu (from LUFactor)
// and B is m x n row-major. This forms the L panel blocks in distributed LU:
// L_ik = A_ik U_kk^{-1}.
func TrsmRightUpper(m, n int, lu, b []float64) {
	for i := 0; i < m; i++ {
		bi := b[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s := bi[j]
			for l := 0; l < j; l++ {
				s -= bi[l] * lu[l*n+j]
			}
			bi[j] = s / lu[j*n+j]
		}
	}
}

// TrsmLeftLowerUnit computes B := L^{-1} * B where L is the unit lower
// triangle of the n x n factored block lu and B is n x m row-major. This
// forms the U panel blocks in distributed LU: U_kj = L_kk^{-1} A_kj.
func TrsmLeftLowerUnit(n, m int, lu, b []float64) {
	for i := 0; i < n; i++ {
		for l := 0; l < i; l++ {
			lil := lu[i*n+l]
			if lil == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				b[i*m+j] -= lil * b[l*m+j]
			}
		}
	}
}

// FFTPlan holds the twiddle factors of a radix-2 transform of one length
// and direction, so a caller transforming many rows computes them once.
type FFTPlan struct {
	n       int
	inverse bool
	// tw holds the stage whose butterflies span 2h elements at
	// tw[h-1 : 2h-1]: the factors w_j = w_{j-1} * wl, w_0 = 1, that the
	// butterfly loop would otherwise recompute for every group.
	tw []complex128
}

// NewFFTPlan tabulates the twiddle factors of a length-n transform; n must
// be a power of two. inverse selects the inverse transform (including the
// 1/n scaling).
func NewFFTPlan(n int, inverse bool) (*FFTPlan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("matrix: FFT length %d is not a power of two", n)
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	tw := make([]complex128, n-1)
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		w := complex(1, 0)
		stage := tw[length/2-1 : length-1]
		for j := range stage {
			stage[j] = w
			w *= wl
		}
	}
	return &FFTPlan{n: n, inverse: inverse, tw: tw}, nil
}

// Transform performs an in-place radix-2 decimation-in-time FFT of x,
// whose length must be the plan's.
func (p *FFTPlan) Transform(x []complex128) error {
	n := len(x)
	if n != p.n {
		return fmt.Errorf("matrix: FFT of length %d with a plan for %d", n, p.n)
	}
	// Bit-reversal permutation.
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
	for half := 1; half < n; half <<= 1 {
		tw := p.tw[half-1 : 2*half-1]
		for i := 0; i < n; i += 2 * half {
			lo := x[i : i+half]
			hi := x[i+half : i+2*half]
			for j, w := range tw {
				u := lo[j]
				v := hi[j] * w
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
	if p.inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}
