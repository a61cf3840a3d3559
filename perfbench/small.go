package main

import (
	"hash"

	"repro/f77"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matgen"
	"repro/la"
)

// newSmall builds the small-matrix workload on two workers, where the la
// boundary, blas.BatchRange scheduling, the pack-free f64 engine and the f32
// path do the work and the packed engine and the reductions barely run.
// Every system has one right-hand side uniform on (−1, 1). Inputs:
//
//   - BatchGesv f64 n=32 ×1024 and 4096 × GESV n=8 through la and through
//     f77 (the same 4096 systems): entries uniform on (−1, 1).
//   - BatchGesvMixed n=32 ×1024: random orthogonal·diag·orthogonal with
//     geometric singular values; κ₂ = 10² for 15 items in 16 and κ₂ = 10¹²
//     for every 16th item, beyond float32's reach, so that item falls back to
//     the float64 factorization.
//   - BatchSyev f64 n=16 ×1024 with vectors: symmetric, entries uniform on
//     (−1, 1).
func newSmall(seed int64) *workload {
	workers := budgets["small"]
	opts := []la.Opt{la.WithThreads(workers)}
	cfg := callCfg(workers)
	rng := newRng(seed, 3)
	solves := newBatch(1024, func(int) (*la.Matrix[float64], *la.Matrix[float64]) {
		return uniform[float64](rng, 32, 32), uniform[float64](rng, 32, 1)
	})
	mixed := newBatch(1024, func(i int) (*la.Matrix[float64], *la.Matrix[float64]) {
		cond := 1e2
		if i%16 == 15 {
			cond = 1e12
		}
		a := la.NewMatrix[float64](32, 32)
		matgen.Latms(cfg, rng, 32, cond, a.Data, a.Stride)
		return a, uniform[float64](rng, 32, 1)
	})
	eigs := newBatch(1024, func(int) (*la.Matrix[float64], *la.Matrix[float64]) {
		return hermitian[float64](rng, 16, 0), nil
	})
	tiny := newBatch(4096, func(int) (*la.Matrix[float64], *la.Matrix[float64]) {
		return uniform[float64](rng, 8, 8), uniform[float64](rng, 8, 1)
	})
	lu := func(n float64) float64 { return 2*n*n*n/3 + 2*n*n }
	return &workload{name: "small", workers: workers, legs: []*leg{
		batchGesvLeg(solves, opts, cfg, 1024*lu(32)),
		batchMixedLeg(mixed, opts, cfg, 1024*lu(32)),
		batchSyevLeg(eigs, append(opts, la.WithVectors()), cfg),
		gesvLoopLeg("la.gesv_f64_n8x4096", tiny, 4096*lu(8), cfg, func(a, b *la.Matrix[float64], _ []int) error {
			_, err := la.GESV(a, b, opts...)
			return err
		}),
		gesvLoopLeg("f77.gesv_f64_n8x4096", tiny.twin(), 4096*lu(8), nil, func(a, b *la.Matrix[float64], ipiv []int) error {
			if info := f77.GESV(a.Rows, b.Cols, a.Data, a.Stride, ipiv, b.Data, b.Stride); info != 0 {
				return &la.Error{Routine: "GESV", Info: info}
			}
			return nil
		}),
	}}
}

// batch holds a set of small problems: the seeded inputs, the buffers the
// drivers overwrite, and one error and pivot slot per item.
type batch[T la.Scalar] struct {
	a0, b0 []*la.Matrix[T]
	as, bs []*la.Matrix[T]
	errs   []error
	ipivs  [][]int
}

func newBatch[T la.Scalar](count int, gen func(i int) (a, b *la.Matrix[T])) *batch[T] {
	bt := &batch[T]{}
	for i := 0; i < count; i++ {
		a, b := gen(i)
		bt.a0 = append(bt.a0, a)
		if b != nil {
			bt.b0 = append(bt.b0, b)
		}
	}
	return bt.twin()
}

// twin returns a batch over the same seeded inputs with buffers of its own.
func (bt *batch[T]) twin() *batch[T] {
	t := &batch[T]{a0: bt.a0, b0: bt.b0, errs: make([]error, len(bt.a0))}
	for i, a := range bt.a0 {
		t.as = append(t.as, a.Clone())
		t.ipivs = append(t.ipivs, make([]int, a.Rows))
		if bt.b0 != nil {
			t.bs = append(t.bs, bt.b0[i].Clone())
		}
	}
	return t
}

func (bt *batch[T]) reset() {
	for i, a := range bt.a0 {
		copy(bt.as[i].Data, a.Data)
		if bt.b0 != nil {
			copy(bt.bs[i].Data, bt.b0[i].Data)
		}
		bt.errs[i] = nil
	}
}

// setErrs stores a batch driver's per-item errors, or its batch-level
// error against every item.
func (bt *batch[T]) setErrs(errs []error, err error) {
	for i := range bt.errs {
		if err != nil {
			bt.errs[i] = err
		} else {
			bt.errs[i] = errs[i]
		}
	}
}

// writeSolutions writes every item's solution to h.
func (bt *batch[T]) writeSolutions(h hash.Hash) {
	for _, b := range bt.bs {
		writeBits(h, b.Data)
	}
}

// checkSolves applies the solve test ratio to every item.
func (bt *batch[T]) checkSolves() (r float64, f int) {
	for i, a0 := range bt.a0 {
		ratioCheck(bt.errs[i], solveRatio(a0, bt.bs[i], bt.b0[i]), &r, &f)
	}
	return r, f
}

func batchGesvLeg(bt *batch[float64], opts []la.Opt, cfg *core.Config, flops float64) *leg {
	return &leg{
		name: "la.batchgesv_f64_n32x1024", calls: len(bt.as), batch: true, flops: flops,
		prep: bt.reset,
		run: func() {
			_, errs, err := la.BatchGesv(bt.as, bt.bs, opts...)
			bt.setErrs(errs, err)
		},
		check: bt.checkSolves,
		out:   bt.writeSolutions,
		replay: func(tr *tracer) {
			tr.do("lapack.gesv_n32", func() {
				for i, a := range bt.as {
					b := bt.bs[i]
					lapack.Gesv(cfg, 32, 1, a.Data, a.Stride, bt.ipivs[i], b.Data, b.Stride)
				}
			})
		},
	}
}

// batchMixedLeg's counts are the mean refinement sweep count of the items
// the mixed path solved and the share of items that fell back to float64.
func batchMixedLeg(bt *batch[float64], opts []la.Opt, cfg *core.Config, flops float64) *leg {
	x := make([]float64, 32)
	var iters []int
	return &leg{
		name: "la.batchgesvmixed_n32x1024", calls: len(bt.as), batch: true, flops: flops,
		prep: bt.reset,
		run: func() {
			var errs []error
			var err error
			_, iters, errs, err = la.BatchGesvMixed(bt.as, bt.bs, opts...)
			bt.setErrs(errs, err)
		},
		check: bt.checkSolves,
		out:   bt.writeSolutions,
		counts: func() map[string]float64 {
			sweeps, solved := 0, 0
			for _, it := range iters {
				if it >= 0 {
					sweeps += it
					solved++
				}
			}
			return map[string]float64{
				"lapack.gesvmixed.iters_mean":     float64(sweeps) / float64(max(solved, 1)),
				"lapack.gesvmixed.fallback_ratio": float64(len(iters)-solved) / float64(max(len(iters), 1)),
			}
		},
		replay: func(tr *tracer) {
			tr.do("lapack.gesvmixed_n32", func() {
				for i, a := range bt.as {
					b := bt.bs[i]
					if _, info := lapack.GesvMixed(cfg, 32, 1, a.Data, a.Stride, bt.ipivs[i], b.Data, b.Stride, x, 32); info == 0 {
						copy(b.Data, x)
					}
				}
			})
		},
	}
}

func batchSyevLeg(bt *batch[float64], opts []la.Opt, cfg *core.Config) *leg {
	ws := make([][]float64, len(bt.as))
	for i := range ws {
		ws[i] = make([]float64, bt.as[i].Rows)
	}
	var out [][]float64
	return &leg{
		name: "la.batchsyev_f64_n16x1024", calls: len(bt.as), batch: true,
		prep: bt.reset,
		run: func() {
			var errs []error
			var err error
			out, errs, err = la.BatchSyev(bt.as, opts...)
			bt.setErrs(errs, err)
		},
		check: func() (r float64, f int) {
			for i, a0 := range bt.a0 {
				ratio := 0.0
				if bt.errs[i] == nil {
					ratio = eigRatio(a0, out[i], bt.as[i])
				}
				ratioCheck(bt.errs[i], ratio, &r, &f)
			}
			return r, f
		},
		replay: func(tr *tracer) {
			tr.do("lapack.syev_n16", func() {
				for i, a := range bt.as {
					lapack.Syev(cfg, true, lapack.Upper, a.Rows, a.Data, a.Stride, ws[i])
				}
			})
			out = ws
		},
		out: func(h hash.Hash) {
			for i, a := range bt.as {
				writeBits(h, out[i], a.Data)
			}
		},
	}
}

// gesvLoopLeg builds a leg of one small solve per item through call. With
// cfg non-nil its replay is the same loop through lapack.Gesv directly,
// the baseline the interface overheads are measured against.
func gesvLoopLeg(name string, bt *batch[float64], flops float64, cfg *core.Config, call func(a, b *la.Matrix[float64], ipiv []int) error) *leg {
	l := &leg{
		name: name, calls: len(bt.as), flops: flops,
		prep: bt.reset,
		run: func() {
			for i, a := range bt.as {
				bt.errs[i] = call(a, bt.bs[i], bt.ipivs[i])
			}
		},
		check: bt.checkSolves,
		out:   bt.writeSolutions,
	}
	if cfg != nil {
		l.replay = func(tr *tracer) {
			tr.do("lapack.gesv_n8", func() {
				for i, a := range bt.as {
					b := bt.bs[i]
					lapack.Gesv(cfg, a.Rows, b.Cols, a.Data, a.Stride, bt.ipivs[i], b.Data, b.Stride)
				}
			})
		}
	}
	return l
}
