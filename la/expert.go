package la

import "repro/internal/lapack"

// ExpertResult carries the optional outputs of the expert linear-system
// drivers (the paper's X, RCOND, FERR, BERR, EQUED, R, C, RPVGRW
// arguments, always computed here).
type ExpertResult[T Scalar] struct {
	X      *Matrix[T] // solution (B is left holding the, possibly scaled, right-hand side)
	RCond  float64    // reciprocal condition number estimate
	Ferr   []float64  // forward error bound per right-hand side
	Berr   []float64  // componentwise backward error per right-hand side
	Equed  byte       // equilibration applied: 'N', 'R', 'C' or 'B'
	R, C   []float64  // row/column scale factors (general drivers)
	S      []float64  // symmetric scale factors (definite drivers)
	RPvGrw float64    // reciprocal pivot growth (LA_GESVX/LA_GBSVX)
	IPiv   []int      // pivots from the factorization, when applicable
}

// GESVX solves A·X = B with condition estimation, iterative refinement and
// optional equilibration (the paper's LA_GESVX expert driver).
//
// Options: WithTrans selects op(A); WithEquilibration enables FACT = 'E'.
// A and B may be overwritten by equilibration; AF-style factored reuse is
// expressed by calling the simple driver first and passing WithFactored
// together with the same matrices. A positive INFO <= n reports a singular
// factor; INFO = n+1 reports RCOND below machine epsilon (the solution and
// bounds are still returned).
func GESVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_GESVX"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !square(a) {
		return nil, erinfo(routine, -1, "")
	}
	if !rhsMatch(a.Rows, b) {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	n, nrhs := a.Rows, b.Cols
	af := NewMatrix[T](n, n)
	x := NewMatrix[T](n, nrhs)
	ipiv := make([]int, n)
	res := lapack.Gesvx(cfg, o.fact, o.trans, n, nrhs, a.Data, a.Stride, af.Data, af.Stride, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{
		X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr,
		Equed: byte(res.Equed), R: res.R, C: res.C, RPvGrw: res.RPvGrw, IPiv: ipiv,
	}
	return out, erexpert(routine, res.Info, n, res.RCond, byte(res.Equed), "matrix is exactly singular", DiagSingular)
}

// GBSVX is the expert driver for general band systems (the paper's
// LA_GBSVX). AB holds the matrix in plain band storage (kl+ku+1 rows, row
// offset ku); pass kl via WithKL (default (AB.Rows-1)/2).
func GBSVX[T Scalar](ab, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_GBSVX"
	defer guard(routine, &err)
	o := apply(opts)
	if ab == nil || ab.Rows < 1 {
		return nil, erinfo(routine, -1, "")
	}
	n := ab.Cols
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -2, "")
	}
	kl := (ab.Rows - 1) / 2
	if o.haveKL {
		kl = o.kl
	}
	ku := ab.Rows - 1 - kl
	if kl < 0 || ku < 0 {
		return nil, erinfo(routine, -3, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "AB", ab), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	nrhs := b.Cols
	ldafb := 2*kl + ku + 1
	afb := make([]T, ldafb*n)
	x := NewMatrix[T](n, nrhs)
	ipiv := make([]int, n)
	res := lapack.Gbsvx(o.fact, o.trans, n, kl, ku, nrhs, ab.Data, ab.Stride, afb, ldafb, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{
		X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr,
		Equed: byte(res.Equed), R: res.R, C: res.C, IPiv: ipiv,
	}
	return out, erexpert(routine, res.Info, n, res.RCond, byte(res.Equed), "matrix is exactly singular", DiagSingular)
}

// GTSVX is the expert driver for general tridiagonal systems (the paper's
// LA_GTSVX). The diagonals are not overwritten.
func GTSVX[T Scalar](dl, d, du []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_GTSVX"
	defer guard(routine, &err)
	o := apply(opts)
	n := len(d)
	if n > 0 && (len(dl) != n-1 || len(du) != n-1) {
		return nil, erinfo(routine, -1, "")
	}
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -4, "")
	}
	if o.check {
		if err := firstErr(
			finiteSlice(routine, 1, "DL", dl),
			finiteSlice(routine, 2, "D", d),
			finiteSlice(routine, 3, "DU", du),
			finiteMat(routine, 4, "B", b),
		); err != nil {
			return nil, err
		}
	}
	nrhs := b.Cols
	dlf := make([]T, max(0, n-1))
	df := make([]T, n)
	duf := make([]T, max(0, n-1))
	du2 := make([]T, max(0, n-2))
	ipiv := make([]int, n)
	x := NewMatrix[T](n, nrhs)
	res := lapack.Gtsvx(o.fact, o.trans, n, nrhs, dl, d, du, dlf, df, duf, du2, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr, IPiv: ipiv}
	return out, erexpert(routine, res.Info, n, res.RCond, 0, "matrix is exactly singular", DiagSingular)
}

// POSVX is the expert driver for symmetric/Hermitian positive definite
// systems (the paper's LA_POSVX).
func POSVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_POSVX"
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	if !square(a) {
		return nil, erinfo(routine, -1, "")
	}
	if !rhsMatch(a.Rows, b) {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	n, nrhs := a.Rows, b.Cols
	af := NewMatrix[T](n, n)
	x := NewMatrix[T](n, nrhs)
	res := lapack.Posvx(cfg, o.fact, o.uplo, n, nrhs, a.Data, a.Stride, af.Data, af.Stride, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{
		X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr,
		Equed: byte(res.Equed), S: res.S,
	}
	return out, erexpert(routine, res.Info, n, res.RCond, byte(res.Equed), "the leading minor of order INFO is not positive definite", DiagNotPositiveDefinite)
}

// PPSVX is the expert driver for packed positive definite systems (the
// paper's LA_PPSVX).
func PPSVX[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_PPSVX"
	defer guard(routine, &err)
	o := apply(opts)
	n := packedOrder(len(ap))
	if n < 0 {
		return nil, erinfo(routine, -1, "")
	}
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteSlice(routine, 1, "AP", ap), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	nrhs := b.Cols
	afp := make([]T, len(ap))
	x := NewMatrix[T](n, nrhs)
	res := lapack.Ppsvx(o.fact, o.uplo, n, nrhs, ap, afp, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{
		X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr,
		Equed: byte(res.Equed), S: res.S,
	}
	return out, erexpert(routine, res.Info, n, res.RCond, byte(res.Equed), "the leading minor of order INFO is not positive definite", DiagNotPositiveDefinite)
}

// PBSVX is the expert driver for positive definite band systems (the
// paper's LA_PBSVX).
func PBSVX[T Scalar](ab, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_PBSVX"
	defer guard(routine, &err)
	o := apply(opts)
	if ab == nil || ab.Rows < 1 {
		return nil, erinfo(routine, -1, "")
	}
	n := ab.Cols
	kd := ab.Rows - 1
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "AB", ab), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	nrhs := b.Cols
	afb := make([]T, (kd+1)*n)
	x := NewMatrix[T](n, nrhs)
	res := lapack.Pbsvx(o.fact, o.uplo, n, kd, nrhs, ab.Data, ab.Stride, afb, kd+1, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{
		X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr,
		Equed: byte(res.Equed), S: res.S,
	}
	return out, erexpert(routine, res.Info, n, res.RCond, byte(res.Equed), "the leading minor of order INFO is not positive definite", DiagNotPositiveDefinite)
}

// PTSVX is the expert driver for positive definite tridiagonal systems
// (the paper's LA_PTSVX). d and e are not overwritten.
func PTSVX[T Scalar](d []float64, e []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	const routine = "LA_PTSVX"
	defer guard(routine, &err)
	o := apply(opts)
	n := len(d)
	if n > 0 && len(e) != n-1 {
		return nil, erinfo(routine, -2, "")
	}
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -3, "")
	}
	if o.check {
		if err := firstErr(
			finiteFloats(routine, 1, "D", d),
			finiteSlice(routine, 2, "E", e),
			finiteMat(routine, 3, "B", b),
		); err != nil {
			return nil, err
		}
	}
	nrhs := b.Cols
	df := make([]float64, n)
	ef := make([]T, max(0, n-1))
	x := NewMatrix[T](n, nrhs)
	res := lapack.Ptsvx[T](o.fact, n, nrhs, d, e, df, ef, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr}
	return out, erexpert(routine, res.Info, n, res.RCond, 0, "the leading minor of order INFO is not positive definite", DiagNotPositiveDefinite)
}

// SYSVX is the expert driver for symmetric indefinite systems (the
// paper's LA_SYSVX).
func SYSVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return sysvx("LA_SYSVX", false, a, b, opts)
}

// HESVX is the expert driver for Hermitian indefinite systems (the
// paper's LA_HESVX).
func HESVX[T Scalar](a, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return sysvx("LA_HESVX", true, a, b, opts)
}

// sysvx is the body of SYSVX (herm false) and HESVX (herm true).
func sysvx[T Scalar](routine string, herm bool, a, b *Matrix[T], opts []Opt) (result *ExpertResult[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	if !square(a) {
		return nil, erinfo(routine, -1, "")
	}
	if !rhsMatch(a.Rows, b) {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteMat(routine, 1, "A", a), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	svx := lapack.Sysvx[T]
	if herm {
		svx = lapack.Hesvx[T]
	}
	n, nrhs := a.Rows, b.Cols
	af := NewMatrix[T](n, n)
	ipiv := make([]int, n)
	x := NewMatrix[T](n, nrhs)
	res := svx(o.cfg, o.fact, o.uplo, n, nrhs, a.Data, a.Stride, af.Data, af.Stride, ipiv, b.Data, b.Stride, x.Data, x.Stride)
	out := &ExpertResult[T]{X: x, RCond: res.RCond, Ferr: res.Ferr, Berr: res.Berr, IPiv: ipiv}
	return out, erexpert(routine, res.Info, n, res.RCond, 0, "D(i,i) is exactly zero; the factorization is singular", DiagSingular)
}

// SPSVX is the expert driver for packed symmetric indefinite systems (the
// paper's LA_SPSVX): factorization, solve, refinement and condition
// estimation on packed storage.
func SPSVX[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return spsvx("LA_SPSVX", false, ap, b, opts)
}

// HPSVX is the expert driver for packed Hermitian indefinite systems (the
// paper's LA_HPSVX).
func HPSVX[T Scalar](ap []T, b *Matrix[T], opts ...Opt) (result *ExpertResult[T], err error) {
	return spsvx("LA_HPSVX", true, ap, b, opts)
}

// spsvx is the body of SPSVX (herm false) and HPSVX (herm true).
func spsvx[T Scalar](routine string, herm bool, ap []T, b *Matrix[T], opts []Opt) (result *ExpertResult[T], err error) {
	defer guard(routine, &err)
	o := apply(opts)
	cfg := o.cfg
	n := packedOrder(len(ap))
	if n < 0 {
		return nil, erinfo(routine, -1, "")
	}
	if !rhsMatch(n, b) {
		return nil, erinfo(routine, -2, "")
	}
	if o.check {
		if err := firstErr(finiteSlice(routine, 1, "AP", ap), finiteMat(routine, 2, "B", b)); err != nil {
			return nil, err
		}
	}
	trf, con, trs, rfs := lapack.Sptrf[T], lapack.Spcon[T], lapack.Sptrs[T], lapack.Sprfs[T]
	if herm {
		trf, con, trs, rfs = lapack.Hptrf[T], lapack.Hpcon[T], lapack.Hptrs[T], lapack.Hprfs[T]
	}
	nrhs := b.Cols
	afp := append([]T(nil), ap...)
	ipiv := make([]int, n)
	info := trf(o.uplo, n, afp, ipiv)
	out := &ExpertResult[T]{X: NewMatrix[T](n, nrhs), Ferr: make([]float64, nrhs), Berr: make([]float64, nrhs), IPiv: ipiv}
	if info != 0 {
		return out, erdiag(routine, info, "D(i,i) is exactly zero", DiagSingular)
	}
	anorm := lapack.Lansp(lapack.OneNorm, o.uplo, n, ap)
	out.RCond = con(cfg, o.uplo, n, afp, ipiv, anorm)
	lapack.Lacpy('A', n, nrhs, b.Data, b.Stride, out.X.Data, out.X.Stride)
	trs(cfg, o.uplo, n, nrhs, afp, ipiv, out.X.Data, out.X.Stride)
	rfs(cfg, o.uplo, n, nrhs, ap, afp, ipiv, b.Data, b.Stride, out.X.Data, out.X.Stride, out.Ferr, out.Berr)
	if out.RCond < epsFor[T]() {
		info = n + 1
	}
	return out, erexpert(routine, info, n, out.RCond, 0, "D(i,i) is exactly zero; the factorization is singular", DiagSingular)
}
