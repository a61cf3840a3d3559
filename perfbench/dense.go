package main

import (
	"hash"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

// newDense builds the dense workload: large solves and least squares on two
// workers, where the packed Level-3 engine, the worker pool and the blocked
// factorizations do nearly all the work. Every system has 16 right-hand
// sides uniform on (−1, 1). Inputs:
//
//   - GESV f64 n=1024 and c128 n=384: entries uniform on (−1, 1); κ₂ is O(n)
//     with high probability.
//   - POSV f64 n=1024: symmetric, off-diagonal uniform on (−1, 1), diagonal
//     uniform on (n−1, n+1): strictly diagonally dominant, so positive
//     definite with κ₂ ≈ 1.1.
//   - SYSV f64 n=768 and HESV c128 n=384: symmetric (Hermitian) indefinite,
//     entries uniform on (−1, 1).
//   - GELS f64 2048×512: entries uniform on (−1, 1); κ₂ ≈ (√m+√n)/(√m−√n) = 3.
func newDense(seed int64) *workload {
	const nrhs = 16
	workers := budgets["dense"]
	opts := []la.Opt{la.WithThreads(workers)}
	cfg := callCfg(workers)
	rng := newRng(seed, 1)
	lu := func(n float64) float64 { return 2*n*n*n/3 + 2*n*n*nrhs }
	chol := func(n float64) float64 { return n*n*n/3 + 2*n*n*nrhs }
	return &workload{name: "dense", workers: workers, legs: []*leg{
		solveLeg("la.gesv_f64_1024", lu(1024),
			uniform[float64](rng, 1024, 1024), uniform[float64](rng, 1024, nrhs), gesv[float64](opts, cfg, "")),
		solveLeg("la.posv_f64_1024", chol(1024),
			hermitian[float64](rng, 1024, 1024), uniform[float64](rng, 1024, nrhs), posv[float64](opts, cfg)),
		solveLeg("la.sysv_f64_768", chol(768),
			hermitian[float64](rng, 768, 0), uniform[float64](rng, 768, nrhs), sysv[float64](opts, cfg)),
		gelsLeg(uniform[float64](rng, 2048, 512), uniform[float64](rng, 2048, nrhs), opts, cfg),
		solveLeg("la.gesv_c128_384", 4*lu(384),
			uniform[complex128](rng, 384, 384), uniform[complex128](rng, 384, nrhs), gesv[complex128](opts, cfg, "_c128")),
		solveLeg("la.hesv_c128_384", 4*chol(384),
			hermitian[complex128](rng, 384, 0), uniform[complex128](rng, 384, nrhs), hesv[complex128](opts, cfg)),
	}}
}

// A solver pairs an la driver call with its replay: the internal/lapack
// phases the driver runs, in order, each inside a span.
type solver[T la.Scalar] struct {
	call   func(a, b *la.Matrix[T]) error
	replay func(tr *tracer, a, b *la.Matrix[T], ipiv []int)
}

func gesv[T la.Scalar](opts []la.Opt, cfg *core.Config, suffix string) solver[T] {
	getrf, getrs := "lapack.getrf"+suffix, "lapack.getrs"+suffix
	return solver[T]{
		call: func(a, b *la.Matrix[T]) error { _, err := la.GESV(a, b, opts...); return err },
		replay: func(tr *tracer, a, b *la.Matrix[T], ipiv []int) {
			n := a.Rows
			tr.do(getrf, func() { lapack.Getrf(cfg, n, n, a.Data, a.Stride, ipiv) })
			tr.do(getrs, func() { lapack.Getrs(cfg, lapack.NoTrans, n, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride) })
		},
	}
}

func posv[T la.Scalar](opts []la.Opt, cfg *core.Config) solver[T] {
	return solver[T]{
		call: func(a, b *la.Matrix[T]) error { return la.POSV(a, b, opts...) },
		replay: func(tr *tracer, a, b *la.Matrix[T], _ []int) {
			n := a.Rows
			tr.do("lapack.potrf", func() { lapack.Potrf(cfg, lapack.Upper, n, a.Data, a.Stride) })
			tr.do("lapack.potrs", func() { lapack.Potrs(cfg, lapack.Upper, n, b.Cols, a.Data, a.Stride, b.Data, b.Stride) })
		},
	}
}

func sysv[T la.Scalar](opts []la.Opt, cfg *core.Config) solver[T] {
	return solver[T]{
		call: func(a, b *la.Matrix[T]) error { _, err := la.SYSV(a, b, opts...); return err },
		replay: func(tr *tracer, a, b *la.Matrix[T], ipiv []int) {
			n := a.Rows
			tr.do("lapack.sytrf", func() { lapack.Sytrf(cfg, lapack.Upper, n, a.Data, a.Stride, ipiv) })
			tr.do("lapack.sytrs", func() { lapack.Sytrs(cfg, lapack.Upper, n, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride) })
		},
	}
}

func hesv[T la.Scalar](opts []la.Opt, cfg *core.Config) solver[T] {
	return solver[T]{
		call: func(a, b *la.Matrix[T]) error { _, err := la.HESV(a, b, opts...); return err },
		replay: func(tr *tracer, a, b *la.Matrix[T], ipiv []int) {
			n := a.Rows
			tr.do("lapack.hetrf_c128", func() { lapack.Hetrf(cfg, lapack.Upper, n, a.Data, a.Stride, ipiv) })
			tr.do("lapack.hetrs_c128", func() { lapack.Hetrs(cfg, lapack.Upper, n, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride) })
		},
	}
}

// solveLeg builds a leg around one n×n solve whose driver overwrites A with
// its factors and B with the solution.
func solveLeg[T la.Scalar](name string, flops float64, a0, b0 *la.Matrix[T], sv solver[T]) *leg {
	a, b := newBuffer(a0), newBuffer(b0)
	ipiv := make([]int, a0.Rows)
	var err error
	return &leg{
		name: name, calls: 1, flops: flops,
		prep: func() { a.reset(); b.reset() },
		run:  func() { err = sv.call(a.work, b.work) },
		check: func() (r float64, f int) {
			ratioCheck(err, solveRatio(a0, b.work, b0), &r, &f)
			return r, f
		},
		replay: func(tr *tracer) {
			err = nil
			sv.replay(tr, a.work, b.work, ipiv)
		},
		out: func(h hash.Hash) { writeBits(h, a.work.Data, b.work.Data) },
	}
}

// gelsLeg builds the overdetermined least-squares leg; the replay follows
// lapack.Gels for m ≥ n without transposition.
func gelsLeg(a0, b0 *la.Matrix[float64], opts []la.Opt, cfg *core.Config) *leg {
	a, b := newBuffer(a0), newBuffer(b0)
	m, n, nrhs := a0.Rows, a0.Cols, b0.Cols
	tau := make([]float64, n)
	fm, fn, fr := float64(m), float64(n), float64(nrhs)
	var err error
	return &leg{
		name: "la.gels_f64_2048x512", calls: 1,
		flops: 2*fm*fn*fn - 2*fn*fn*fn/3 + 4*fm*fn*fr + fn*fn*fr,
		prep:  func() { a.reset(); b.reset() },
		run:   func() { err = la.GELS(a.work, b.work, opts...) },
		check: func() (r float64, f int) {
			ratioCheck(err, lsRatio(a0, b.work, b0), &r, &f)
			return r, f
		},
		replay: func(tr *tracer) {
			err = nil
			ad, bd := a.work.Data, b.work.Data
			tr.do("lapack.geqrf", func() { lapack.Geqrf(cfg, m, n, ad, m, tau) })
			tr.do("lapack.ormqr", func() { lapack.Ormqr(cfg, lapack.Left, lapack.ConjTrans, m, nrhs, n, ad, m, tau, bd, m) })
			tr.do("lapack.trtrs", func() { lapack.Trtrs(cfg, lapack.Upper, lapack.NoTrans, lapack.NonUnit, n, nrhs, ad, m, bd, m) })
		},
		out: func(h hash.Hash) { writeBits(h, a.work.Data, b.work.Data) },
	}
}
