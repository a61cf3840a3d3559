package main

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/la"
)

// The output oracle: the classical LAPACK test ratios of the paper's
// Appendix F. A backward-stable result keeps every ratio O(1); a call
// passes when all of its ratios stay below thresh, the paper's threshold.
const thresh = 10.0

// passes reports whether a test ratio is finite and below the threshold.
func passes(r float64) bool { return r < thresh && !math.IsNaN(r) }

// solveRatio is the solve test ratio ‖B − A·X‖₁ / (‖A‖₁·‖X‖₁·n·ε).
func solveRatio[T la.Scalar](a0, x, b0 *la.Matrix[T]) float64 {
	return testutil.SolveResidual(a0.Rows, b0.Cols, a0.Data, a0.Stride, x.Data, x.Stride, b0.Data, b0.Stride)
}

// lsRatio is the least-squares test ratio of LAPACK's xQRT17 for an
// overdetermined m×n problem: ‖Aᴴ·(B − A·X)‖₁ / (max(m,n,nrhs)·‖A‖₁·‖B‖₁·ε),
// which vanishes exactly at the least-squares solution. x holds X in its
// leading n rows.
func lsRatio[T la.Scalar](a0, x, b0 *la.Matrix[T]) float64 {
	m, n, nrhs := a0.Rows, a0.Cols, b0.Cols
	one := core.FromFloat[T](1)
	r := make([]T, m*nrhs)
	lapack.Lacpy('A', m, nrhs, b0.Data, b0.Stride, r, m)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, m, nrhs, n, -one, a0.Data, a0.Stride, x.Data, x.Stride, one, r, m)
	w := make([]T, n*nrhs)
	blas.Gemm(nil, blas.ConjTrans, blas.NoTrans, n, nrhs, m, one, a0.Data, a0.Stride, r, m, core.FromFloat[T](0), w, n)
	anorm := lapack.Lange(lapack.OneNorm, m, n, a0.Data, a0.Stride)
	bnorm := lapack.Lange(lapack.OneNorm, m, nrhs, b0.Data, b0.Stride)
	wnorm := lapack.Lange(lapack.OneNorm, n, nrhs, w, n)
	return wnorm / (float64(max(m, n, nrhs)) * anorm * bnorm * core.Eps[T]())
}

// svdRatio is the largest of the SVD test ratios for economy factors:
// ‖A − U·Σ·Vᴴ‖₁ / (‖A‖₁·max(m,n)·ε), ‖Uᴴ·U − I‖₁ / (k·ε) and
// ‖Vᴴ·V − I‖₁ / (k·ε) with k = min(m,n). s must be non-negative and
// non-increasing.
func svdRatio[T la.Scalar](a0 *la.Matrix[T], s []float64, u, vt *la.Matrix[T]) float64 {
	m, n := a0.Rows, a0.Cols
	k := min(m, n)
	for i := range s {
		if s[i] < 0 || (i > 0 && s[i] > s[i-1]) {
			return math.Inf(1)
		}
	}
	us := make([]T, m*k)
	for j := 0; j < k; j++ {
		sj := core.FromFloat[T](s[j])
		for i := 0; i < m; i++ {
			us[i+j*m] = u.Data[i+j*u.Stride] * sj
		}
	}
	r := make([]T, m*n)
	lapack.Lacpy('A', m, n, a0.Data, a0.Stride, r, m)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, m, n, k, core.FromFloat[T](-1), us, m, vt.Data, vt.Stride, core.FromFloat[T](1), r, m)
	anorm := lapack.Lange(lapack.OneNorm, m, n, a0.Data, a0.Stride)
	recon := lapack.Lange(lapack.OneNorm, m, n, r, m) / (anorm * float64(max(m, n)) * core.Eps[T]())
	v := make([]T, n*k)
	blas.ConjTransposeTo(k, n, vt.Data, vt.Stride, v, n)
	return max(recon,
		testutil.OrthoResidual(m, k, u.Data, u.Stride),
		testutil.OrthoResidual(n, k, v, n))
}

// eigRatio is the larger of the symmetric eigenproblem test ratios
// ‖A·Z − Z·diag(w)‖₁ / (‖A‖₁·n·ε) and ‖Zᴴ·Z − I‖₁ / (n·ε). w must be
// ascending.
func eigRatio[T la.Scalar](a0 *la.Matrix[T], w []float64, z *la.Matrix[T]) float64 {
	n := a0.Rows
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1] {
			return math.Inf(1)
		}
	}
	return max(testutil.EigResidual(n, a0.Data, a0.Stride, w, z.Data, z.Stride),
		testutil.OrthoResidual(n, n, z.Data, z.Stride))
}
