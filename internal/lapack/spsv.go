package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// The packed indefinite routines operate by expanding the packed triangle
// into a dense scratch triangle, running the dense Bunch–Kaufman kernels,
// and repacking. This trades the memory advantage of packed storage for a
// single shared implementation; the computed factors, pivots and info codes
// are identical to running the dense routines on the expanded matrix (see
// DESIGN.md, substitutions).

func unpackTri[T core.Scalar](uplo Uplo, n int, ap []T) []T {
	a := make([]T, n*n)
	for j := 0; j < n; j++ {
		if uplo == Upper {
			for i := 0; i <= j; i++ {
				a[i+j*n] = ap[blas.PackIdx(Upper, n, i, j)]
			}
		} else {
			for i := j; i < n; i++ {
				a[i+j*n] = ap[blas.PackIdx(Lower, n, i, j)]
			}
		}
	}
	return a
}

func repackTri[T core.Scalar](uplo Uplo, n int, a []T, ap []T) {
	for j := 0; j < n; j++ {
		if uplo == Upper {
			for i := 0; i <= j; i++ {
				ap[blas.PackIdx(Upper, n, i, j)] = a[i+j*n]
			}
		} else {
			for i := j; i < n; i++ {
				ap[blas.PackIdx(Lower, n, i, j)] = a[i+j*n]
			}
		}
	}
}

// bkPtrf is bkTf2 on packed storage (xSPTRF, xHPTRF).
func bkPtrf[T core.Scalar](herm bool, uplo Uplo, n int, ap []T, ipiv []int) int {
	a := unpackTri(uplo, n, ap)
	info := bkTf2(herm, uplo, n, a, n, ipiv)
	repackTri(uplo, n, a, ap)
	return info
}

// bkPsv factors the packed A and, when it is nonsingular, solves
// A·X = B (xSPSV, xHPSV).
func bkPsv[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) int {
	info := bkPtrf(herm, uplo, n, ap, ipiv)
	if info == 0 {
		bkTrs(cfg, herm, uplo, n, nrhs, unpackTri(uplo, n, ap), n, ipiv, b, ldb)
	}
	return info
}

// bkPrfs iteratively refines the solution of a packed system (xSPRFS,
// xHPRFS).
func bkPrfs[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, ap, afp []T, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	af := unpackTri(uplo, n, afp)
	spmv := blas.Spmv[T]
	if herm {
		spmv = blas.Hpmv[T]
	}
	rfs(NoTrans, n, nrhs,
		func(_ Trans, alpha T, x []T, beta T, y []T) { spmv(uplo, n, alpha, ap, x, 1, beta, y, 1) },
		func(_ Trans, xa, y []float64) { absSpmv(uplo, n, ap, xa, y) },
		func(_ Trans, r []T) { bkTrs(cfg, herm, uplo, n, 1, af, n, ipiv, r, n) },
		b, ldb, x, ldx, ferr, berr)
}

// Sptrf computes the Bunch–Kaufman factorization of a symmetric matrix in
// packed storage (xSPTRF).
func Sptrf[T core.Scalar](uplo Uplo, n int, ap []T, ipiv []int) int {
	return bkPtrf(false, uplo, n, ap, ipiv)
}

// Hptrf computes the Bunch–Kaufman factorization of a Hermitian matrix in
// packed storage (xHPTRF).
func Hptrf[T core.Scalar](uplo Uplo, n int, ap []T, ipiv []int) int {
	return bkPtrf(true, uplo, n, ap, ipiv)
}

// Sptrs solves A·X = B using the packed factorization from Sptrf (xSPTRS).
func Sptrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) {
	bkTrs(cfg, false, uplo, n, nrhs, unpackTri(uplo, n, ap), n, ipiv, b, ldb)
}

// Hptrs solves A·X = B using the packed Hermitian factorization from Hptrf
// (xHPTRS).
func Hptrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) {
	bkTrs(cfg, true, uplo, n, nrhs, unpackTri(uplo, n, ap), n, ipiv, b, ldb)
}

// Spsv solves A·X = B for a symmetric indefinite matrix in packed storage
// (the xSPSV driver).
func Spsv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) int {
	return bkPsv(cfg, false, uplo, n, nrhs, ap, ipiv, b, ldb)
}

// Hpsv solves A·X = B for a Hermitian indefinite matrix in packed storage
// (the xHPSV driver).
func Hpsv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap []T, ipiv []int, b []T, ldb int) int {
	return bkPsv(cfg, true, uplo, n, nrhs, ap, ipiv, b, ldb)
}

// Spcon estimates the reciprocal 1-norm condition number from the packed
// factorization (xSPCON).
func Spcon[T core.Scalar](cfg *core.Config, uplo Uplo, n int, ap []T, ipiv []int, anorm float64) float64 {
	return bkCon(cfg, false, uplo, n, unpackTri(uplo, n, ap), n, ipiv, anorm)
}

// Hpcon estimates the reciprocal 1-norm condition number from the packed
// Hermitian factorization (xHPCON).
func Hpcon[T core.Scalar](cfg *core.Config, uplo Uplo, n int, ap []T, ipiv []int, anorm float64) float64 {
	return bkCon(cfg, true, uplo, n, unpackTri(uplo, n, ap), n, ipiv, anorm)
}

// Sprfs iteratively refines the solution of a packed symmetric indefinite
// system (xSPRFS).
func Sprfs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap, afp []T, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	bkPrfs(cfg, false, uplo, n, nrhs, ap, afp, ipiv, b, ldb, x, ldx, ferr, berr)
}

// Hprfs iteratively refines the solution of a packed Hermitian indefinite
// system (xHPRFS).
func Hprfs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, ap, afp []T, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	bkPrfs(cfg, true, uplo, n, nrhs, ap, afp, ipiv, b, ldb, x, ldx, ferr, berr)
}
