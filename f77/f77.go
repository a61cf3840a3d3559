// Package f77 is the F77_LAPACK interface layer of the paper: a generic
// front end that keeps the explicit FORTRAN 77 calling sequences — every
// dimension, leading dimension and pivot array is passed by the caller,
// and the result status is an INFO integer rather than an error value.
//
// The paper's Example 1 uses exactly this interface
// (CALL LA_GESV( N, NRHS, A, LDA, IPIV, B, LDB, INFO )), and its Example 3
// times it against the simplified F90 interface; package la is that
// simplified interface. Both packages drive the same computational core,
// so the timing difference between them is pure wrapper overhead — the
// measurement the paper reports.
//
// Conventions retained from FORTRAN: ipiv is 1-based (the paper's
// LAPACK77 semantics; package la uses 0-based pivots), matrices are
// column-major flat slices with an explicit leading dimension, and no
// argument validation is performed beyond LAPACK's own (garbage in,
// garbage out — exactly like calling S/D/C/ZGESV directly).
package f77

import (
	"repro/internal/core"
	"repro/internal/lapack"
)

// Scalar is the element-type constraint shared with package la.
type Scalar = interface {
	float32 | float64 | complex64 | complex128
}

// Storage and operation selectors, re-exported so callers need only this
// package.
type (
	// UpLo selects a triangle ('U' or 'L' in FORTRAN terms).
	UpLo = lapack.Uplo
	// Trans selects op(A) ('N', 'T' or 'C').
	Trans = lapack.Trans
)

// Selector values.
const (
	Upper     = lapack.Upper
	Lower     = lapack.Lower
	NoTrans   = lapack.NoTrans
	TransT    = lapack.TransT
	ConjTrans = lapack.ConjTrans
)

// pivIn converts a caller-supplied 1-based pivot array to 0-based.
func pivIn(ipiv []int) []int {
	out := make([]int, len(ipiv))
	for i, p := range ipiv {
		out[i] = p - 1
	}
	return out
}

// pivOut writes 0-based pivots back as 1-based.
func pivOut(src, dst []int) {
	for i, p := range src {
		dst[i] = p + 1
	}
}

// bkPivOut writes 0-based Bunch–Kaufman pivots back as 1-based: 1×1 pivot
// rows shift by one, 2×2 block markers stay negative.
func bkPivOut(src, dst []int) {
	for i, p := range src {
		if p >= 0 {
			p++
		}
		dst[i] = p
	}
}

// GETRF computes an LU factorization with partial pivoting
// (xGETRF: M, N, A, LDA, IPIV, INFO). ipiv is 1-based on return.
func GETRF[T Scalar](m, n int, a []T, lda int, ipiv []int) (info int) {
	cfg := core.Default()
	p := make([]int, min(m, n))
	info = lapack.Getrf(cfg, m, n, a, lda, p)
	pivOut(p, ipiv)
	return info
}

// GETRS solves op(A)·X = B from a GETRF factorization
// (xGETRS: TRANS, N, NRHS, A, LDA, IPIV, B, LDB, INFO).
func GETRS[T Scalar](trans Trans, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	cfg := core.Default()
	lapack.Getrs(cfg, trans, n, nrhs, a, lda, pivIn(ipiv), b, ldb)
	return 0
}

// GETRI computes the matrix inverse from a GETRF factorization
// (xGETRI: N, A, LDA, IPIV, WORK, LWORK, INFO).
func GETRI[T Scalar](n int, a []T, lda int, ipiv []int, work []T, lwork int) (info int) {
	cfg := core.Default()
	if lwork < n {
		return -6
	}
	return lapack.Getri(cfg, n, a, lda, pivIn(ipiv), work)
}

// GESV solves A·X = B by LU factorization with partial pivoting
// (xGESV: N, NRHS, A, LDA, IPIV, B, LDB, INFO) — the call of the paper's
// Example 1, Statement 14. ipiv is 1-based on return.
func GESV[T Scalar](n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	cfg := core.Default()
	p := make([]int, n)
	info = lapack.Gesv(cfg, n, nrhs, a, lda, p, b, ldb)
	pivOut(p, ipiv)
	return info
}

// POTRF computes a Cholesky factorization (xPOTRF: UPLO, N, A, LDA, INFO).
func POTRF[T Scalar](uplo UpLo, n int, a []T, lda int) (info int) {
	cfg := core.Default()
	return lapack.Potrf(cfg, uplo, n, a, lda)
}

// POTRS solves from a Cholesky factorization
// (xPOTRS: UPLO, N, NRHS, A, LDA, B, LDB, INFO).
func POTRS[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, b []T, ldb int) (info int) {
	cfg := core.Default()
	lapack.Potrs(cfg, uplo, n, nrhs, a, lda, b, ldb)
	return 0
}

// POSV solves a positive definite system
// (xPOSV: UPLO, N, NRHS, A, LDA, B, LDB, INFO).
func POSV[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, b []T, ldb int) (info int) {
	cfg := core.Default()
	return lapack.Posv(cfg, uplo, n, nrhs, a, lda, b, ldb)
}

// GBSV solves a general band system
// (xGBSV: N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO).
func GBSV[T Scalar](n, kl, ku, nrhs int, ab []T, ldab int, ipiv []int, b []T, ldb int) (info int) {
	p := make([]int, n)
	info = lapack.Gbsv(n, kl, ku, nrhs, ab, ldab, p, b, ldb)
	pivOut(p, ipiv)
	return info
}

// GTSV solves a general tridiagonal system
// (xGTSV: N, NRHS, DL, D, DU, B, LDB, INFO).
func GTSV[T Scalar](n, nrhs int, dl, d, du []T, b []T, ldb int) (info int) {
	return lapack.Gtsv(n, nrhs, dl, d, du, b, ldb)
}

// PTSV solves a positive definite tridiagonal system
// (xPTSV: N, NRHS, D, E, B, LDB, INFO).
func PTSV[T Scalar](n, nrhs int, d []float64, e []T, b []T, ldb int) (info int) {
	return lapack.Ptsv(n, nrhs, d, e, b, ldb)
}

// PPSV solves a packed positive definite system
// (xPPSV: UPLO, N, NRHS, AP, B, LDB, INFO).
func PPSV[T Scalar](uplo UpLo, n, nrhs int, ap []T, b []T, ldb int) (info int) {
	return lapack.Ppsv(uplo, n, nrhs, ap, b, ldb)
}

// PBSV solves a positive definite band system
// (xPBSV: UPLO, N, KD, NRHS, AB, LDAB, B, LDB, INFO).
func PBSV[T Scalar](uplo UpLo, n, kd, nrhs int, ab []T, ldab int, b []T, ldb int) (info int) {
	return lapack.Pbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb)
}

// SYSV solves a symmetric indefinite system
// (xSYSV: UPLO, N, NRHS, A, LDA, IPIV, B, LDB, INFO). The pivot encoding
// follows LAPACK, shifted to 1-based.
func SYSV[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	cfg := core.Default()
	p := make([]int, n)
	info = lapack.Sysv(cfg, uplo, n, nrhs, a, lda, p, b, ldb)
	bkPivOut(p, ipiv)
	return info
}

// HESV solves a Hermitian indefinite system
// (xHESV: UPLO, N, NRHS, A, LDA, IPIV, B, LDB, INFO).
func HESV[T Scalar](uplo UpLo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) (info int) {
	cfg := core.Default()
	p := make([]int, n)
	info = lapack.Hesv(cfg, uplo, n, nrhs, a, lda, p, b, ldb)
	bkPivOut(p, ipiv)
	return info
}

// GELS solves full-rank least squares problems by QR or LQ factorization
// (xGELS: TRANS, M, N, NRHS, A, LDA, B, LDB, WORK, LWORK, INFO; the
// workspace arguments are accepted for signature fidelity and ignored —
// workspace is managed internally).
func GELS[T Scalar](trans Trans, m, n, nrhs int, a []T, lda int, b []T, ldb int, work []T, lwork int) (info int) {
	cfg := core.Default()
	return lapack.Gels(cfg, trans, m, n, nrhs, a, lda, b, ldb)
}

// SYEV computes the spectrum of a symmetric/Hermitian matrix
// (xSYEV: JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, INFO with jobz as a
// boolean; W is float64 for every element type).
func SYEV[T Scalar](jobz bool, uplo UpLo, n int, a []T, lda int, w []float64) (info int) {
	cfg := core.Default()
	return lapack.Syev[T](cfg, jobz, uplo, n, a, lda, w)
}

// GESVD computes a singular value decomposition
// (xGESVD: JOBU, JOBVT, M, N, A, LDA, S, U, LDU, VT, LDVT, INFO with the
// job characters 'A', 'S' or 'N').
func GESVD[T Scalar](jobu, jobvt byte, m, n int, a []T, lda int, s []float64, u []T, ldu int, vt []T, ldvt int) (info int) {
	cfg := core.Default()
	return lapack.Gesvd(cfg, lapack.SVDJob(jobu), lapack.SVDJob(jobvt), m, n, a, lda, s, u, ldu, vt, ldvt)
}

// GEQRF computes a QR factorization (xGEQRF: M, N, A, LDA, TAU, INFO).
func GEQRF[T Scalar](m, n int, a []T, lda int, tau []T) (info int) {
	cfg := core.Default()
	lapack.Geqrf(cfg, m, n, a, lda, tau)
	return 0
}

// ILAENV returns tuning parameters, the hook the paper's LA_GETRI listing
// queries for its workspace size.
func ILAENV(ispec int, name string, n1, n2, n3, n4 int) int {
	cfg := core.Default()
	return lapack.Ilaenv(cfg, ispec, name, n1, n2, n3, n4)
}

// LAMCH returns machine parameters in the FORTRAN 90 EPSILON convention
// used throughout the paper ('E' the relative machine epsilon, 'S' the
// safe minimum, 'O' the overflow threshold) for the element type T.
func LAMCH[T Scalar](cmach byte) float64 {
	switch cmach {
	case 'E', 'e':
		return core.Eps[T]()
	case 'S', 's':
		return core.SafeMin[T]()
	case 'O', 'o':
		return core.Overflow[T]()
	}
	return 0
}
