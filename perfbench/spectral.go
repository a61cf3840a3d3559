package main

import (
	"hash"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

// newSpectral builds the spectral workload: SVDs and symmetric
// eigenproblems on one worker, dominated by the Level-2 halves of the
// bidiagonal and tridiagonal reductions, the orthogonal-factor generation
// and the divide-and-conquer secular solves. With one worker, changes to the
// worker pool have nothing to move here. Inputs:
//
//   - GESVD f64 384×384 and 256×768 (the wide path), economy vectors:
//     entries uniform on (−1, 1).
//   - SYEVD f64 n=384 and SYEV f64 n=256 (QL iteration: the same reduction
//     without the secular solve), vectors: symmetric, entries uniform on
//     (−1, 1), so the spectrum follows the semicircle law and deflation is
//     rare.
func newSpectral(seed int64) *workload {
	workers := budgets["spectral"]
	opts := []la.Opt{la.WithThreads(workers)}
	cfg := callCfg(workers)
	rng := newRng(seed, 2)
	return &workload{name: "spectral", workers: workers, legs: []*leg{
		svdLeg("la.gesvd_f64_384", uniform[float64](rng, 384, 384), opts, cfg),
		svdLeg("la.gesvd_f64_256x768", uniform[float64](rng, 256, 768), opts, cfg),
		eigLeg("la.syevd_f64_384", hermitian[float64](rng, 384, 0), opts, cfg, true),
		eigLeg("la.syev_f64_256", hermitian[float64](rng, 256, 0), opts, cfg, false),
	}}
}

// svdLeg builds an economy-vector SVD leg. The check reads the factors
// from the driver's result, or from the replay's buffers after a replay.
func svdLeg(name string, a0 *la.Matrix[float64], opts []la.Opt, cfg *core.Config) *leg {
	a := newBuffer(a0)
	m, n := a0.Rows, a0.Cols
	k := min(m, n)
	rs, ru, rvt := make([]float64, k), la.NewMatrix[float64](m, k), la.NewMatrix[float64](k, n)
	var s []float64
	var u, vt *la.Matrix[float64]
	var err error
	return &leg{
		name: name, calls: 1,
		prep: func() { a.reset() },
		run: func() {
			var res *la.SVDResult[float64]
			res, err = la.GESVD(a.work, opts...)
			if err == nil {
				s, u, vt = res.S, res.U, res.VT
			}
		},
		check: func() (r float64, f int) {
			ratio := 0.0
			if err == nil {
				ratio = svdRatio(a0, s, u, vt)
			}
			ratioCheck(err, ratio, &r, &f)
			return r, f
		},
		replay: func(tr *tracer) {
			err = nil
			replayGesdd(tr, cfg, m, n, a.work.Data, a.work.Stride, rs, ru.Data, ru.Stride, rvt.Data, rvt.Stride)
			s, u, vt = rs, ru, rvt
		},
		out: func(h hash.Hash) { writeBits(h, s, u.Data, vt.Data) },
	}
}

// replayGesdd retraces lapack.Gesdd with economy vectors (jobu = jobvt =
// 'S') on float64 input whose norm needs no rescaling, with the library's
// pooled scratch. Wide input runs the tall path on its transpose; tall input
// with m ≥ 5n/3 factors A = Q·R first.
func replayGesdd(tr *tracer, cfg *core.Config, m, n int, a []float64, lda int, s, u []float64, ldu int, vt []float64, ldvt int) {
	tr.do("lapack.lange", func() { lapack.Lange(lapack.MaxAbs, m, n, a, lda) })
	if m < n {
		ah := blas.GetScratch[float64](n * m)
		defer blas.PutScratch(ah)
		up := blas.GetScratch[float64](n * m)
		defer blas.PutScratch(up)
		vtp := blas.GetScratch[float64](m * m)
		defer blas.PutScratch(vtp)
		tr.do("blas.transpose", func() { blas.ConjTransposeTo(m, n, a, lda, ah, n) })
		replayGesdd(tr, cfg, n, m, ah, n, s, up, n, vtp, m)
		tr.do("blas.transpose", func() {
			blas.ConjTransposeTo(m, m, vtp, m, u, ldu)
			blas.ConjTransposeTo(n, m, up, n, vt, ldvt)
		})
		return
	}
	if 3*m >= 5*n && m > n {
		tau := make([]float64, n)
		tr.do("lapack.geqrf", func() { lapack.Geqrf(cfg, m, n, a, lda, tau) })
		r := blas.GetScratch[float64](n * n)
		defer blas.PutScratch(r)
		lapack.Laset('A', n, n, 0, 0, r, n)
		lapack.Lacpy('U', n, n, a, lda, r, n)
		ur := blas.GetScratch[float64](n * n)
		defer blas.PutScratch(ur)
		replayGesdd(tr, cfg, n, n, r, n, s, ur, n, vt, ldvt)
		lapack.Lacpy('L', m, n, a, lda, u, ldu)
		tr.do("lapack.orgqr", func() { lapack.Orgqr(cfg, m, n, n, u, ldu, tau) })
		tmp := blas.GetScratch[float64](m * n)
		defer blas.PutScratch(tmp)
		tr.do("blas.gemm_backxform", func() { blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, m, n, n, 1, u, ldu, ur, n, 0, tmp, m) })
		lapack.Lacpy('A', m, n, tmp, m, u, ldu)
		return
	}
	d, e := make([]float64, n), make([]float64, max(0, n-1))
	tauq, taup := make([]float64, n), make([]float64, n)
	tr.do("lapack.gebrd", func() { lapack.Gebrd(cfg, m, n, a, lda, d, e, tauq, taup) })
	u0 := blas.GetScratch[float64](n * n)
	defer blas.PutScratch(u0)
	vt0 := blas.GetScratch[float64](n * n)
	defer blas.PutScratch(vt0)
	tr.do("lapack.bdsdc", func() { lapack.Bdsdc(cfg, n, d, e, u0, n, vt0, n) })
	copy(s[:n], d)
	lapack.Lacpy('L', m, n, a, lda, u, ldu)
	tr.do("lapack.orgbr_q", func() { lapack.Orgbr(cfg, 'Q', m, n, n, u, ldu, tauq) })
	tmp := blas.GetScratch[float64](m * n)
	defer blas.PutScratch(tmp)
	tr.do("blas.gemm_backxform", func() { blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, m, n, n, 1, u, ldu, u0, n, 0, tmp, m) })
	lapack.Lacpy('A', m, n, tmp, m, u, ldu)
	lapack.Lacpy('U', n, n, a, lda, vt, ldvt)
	tr.do("lapack.orgbr_p", func() { lapack.Orgbr(cfg, 'P', n, n, n, vt, ldvt, taup) })
	tmp2 := blas.GetScratch[float64](n * n)
	defer blas.PutScratch(tmp2)
	tr.do("blas.gemm_backxform", func() { blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, n, n, n, 1, vt0, n, vt, ldvt, 0, tmp2, n) })
	lapack.Lacpy('A', n, n, tmp2, n, vt, ldvt)
}

// eigLeg builds a symmetric eigenproblem leg with vectors, through SYEVD
// (divide and conquer) or SYEV (QL/QR iteration). The vectors overwrite A.
func eigLeg(name string, a0 *la.Matrix[float64], opts []la.Opt, cfg *core.Config, dc bool) *leg {
	a := newBuffer(a0)
	n := a0.Rows
	opts = append(append([]la.Opt(nil), opts...), la.WithVectors())
	rw := make([]float64, n)
	var w []float64
	var err error
	return &leg{
		name: name, calls: 1,
		prep: func() { a.reset() },
		run: func() {
			if dc {
				w, err = la.SYEVD(a.work, opts...)
			} else {
				w, err = la.SYEV(a.work, opts...)
			}
		},
		check: func() (r float64, f int) {
			ratio := 0.0
			if err == nil {
				ratio = eigRatio(a0, w, a.work)
			}
			ratioCheck(err, ratio, &r, &f)
			return r, f
		},
		replay: func(tr *tracer) {
			err = nil
			ad := a.work.Data
			if !dc {
				tr.do("lapack.lansy", func() { lapack.Lansy(lapack.MaxAbs, lapack.Upper, n, ad, n) })
			}
			e, tau := make([]float64, n-1), make([]float64, n-1)
			tr.do("lapack.sytrd", func() { lapack.Sytrd(cfg, lapack.Upper, n, ad, n, rw, e, tau) })
			tr.do("lapack.orgtr", func() { lapack.Orgtr(cfg, lapack.Upper, n, ad, n, tau) })
			if dc {
				tr.do("lapack.stedc", func() { lapack.Stedc(cfg, n, rw, e, ad, n) })
			} else {
				tr.do("lapack.steqr", func() { lapack.Steqr(cfg, n, rw, e, ad, n) })
			}
			w = rw
		},
		out: func(h hash.Hash) { writeBits(h, w, a.work.Data) },
	}
}
