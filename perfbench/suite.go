package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/f77"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

// The traced run. It measures the tracing overhead on its own workload,
// then replays every driver of all three workloads, each on its workload's
// worker budget, as spans: the la or f77 call itself, then the same call
// rebuilt from its internal/lapack and internal/blas phases, then probes of
// single kernels. Per-layer metrics are reduced from the spans of each
// replay cycle and reported as medians over cycles, so every traced run
// reports every per-layer metric whatever its workload.

// perLayer lists the per-layer metrics with their units, in report order.
var perLayer = []struct{ name, unit string }{
	{"blas.gemm_f64_1024.gflops", "GF/s"},
	{"lapack.getrf.gflops", "GF/s"},
	{"lapack.potrf.gflops", "GF/s"},
	{"lapack.geqrf.gflops", "GF/s"},
	{"lapack.sytrf.gflops", "GF/s"},
	{"blas.gemm_c128_384.gflops", "GF/s"},
	{"lapack.getrf_c128.gflops", "GF/s"},
	{"lapack.hetrf_c128.s", "s"},
	{"blas.gemm_f64.speedup_w2", "ratio"},
	{"lapack.getrf.speedup_w2", "ratio"},
	{"lapack.gebrd.s", "s"},
	{"lapack.gebrd.share", "ratio"},
	{"lapack.bdsdc.s", "s"},
	{"lapack.bdsdc.share", "ratio"},
	{"lapack.orgbr_q.s", "s"},
	{"lapack.orgbr_q.share", "ratio"},
	{"lapack.orgbr_p.s", "s"},
	{"lapack.orgbr_p.share", "ratio"},
	{"lapack.sytrd.s", "s"},
	{"lapack.sytrd.share", "ratio"},
	{"lapack.orgtr.s", "s"},
	{"lapack.orgtr.share", "ratio"},
	{"lapack.stedc.s", "s"},
	{"lapack.stedc.share", "ratio"},
	{"lapack.steqr.s", "s"},
	{"lapack.steqr.share", "ratio"},
	{"blas.gemm_backxform.s", "s"},
	{"blas.gemm_backxform.share", "ratio"},
	{"lapack.gesv.coverage_frac", "ratio"},
	{"lapack.posv.coverage_frac", "ratio"},
	{"lapack.sysv.coverage_frac", "ratio"},
	{"lapack.gels.coverage_frac", "ratio"},
	{"lapack.gesv_c128.coverage_frac", "ratio"},
	{"lapack.hesv_c128.coverage_frac", "ratio"},
	{"lapack.gesvd.coverage_frac", "ratio"},
	{"lapack.syevd.coverage_frac", "ratio"},
	{"lapack.syev.coverage_frac", "ratio"},
	{"la.gesvd.alloc_mb", "MB"},
	{"la.syevd.alloc_mb", "MB"},
	{"blas.gemm_f32_n32.gflops", "GF/s"},
	{"blas.gemm_f64_n32.gflops", "GF/s"},
	{"lapack.getrf_f32_n32.s", "s"},
	{"lapack.gesvmixed.iters_mean", "count"},
	{"lapack.gesvmixed.fallback_ratio", "ratio"},
	{"la.gesv_n8.overhead_frac", "ratio"},
	{"la.gesv_n8.mallocs_per_call", "count"},
	{"f77.gesv_n8.overhead_frac", "ratio"},
	{"blas.batchrange.efficiency", "ratio"},
	{"la.example3.overhead_frac", "ratio"},
	{"host.ref_s_p50", "s"},
	{"host.ref_drift", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// coverage maps each coverage metric to the legs whose replays it covers.
var coverage = map[string][]string{
	"lapack.gesv.coverage_frac":      {"la.gesv_f64_1024"},
	"lapack.posv.coverage_frac":      {"la.posv_f64_1024"},
	"lapack.sysv.coverage_frac":      {"la.sysv_f64_768"},
	"lapack.gels.coverage_frac":      {"la.gels_f64_2048x512"},
	"lapack.gesv_c128.coverage_frac": {"la.gesv_c128_384"},
	"lapack.hesv_c128.coverage_frac": {"la.hesv_c128_384"},
	"lapack.gesvd.coverage_frac":     {"la.gesvd_f64_384", "la.gesvd_f64_256x768"},
	"lapack.syevd.coverage_frac":     {"la.syevd_f64_384"},
	"lapack.syev.coverage_frac":      {"la.syev_f64_256"},
}

// spectralPhases are the phases whose time and share of the spectral
// replays are reported.
var spectralPhases = []string{
	"lapack.gebrd", "lapack.bdsdc", "lapack.orgbr_q", "lapack.orgbr_p",
	"lapack.sytrd", "lapack.orgtr", "lapack.stedc", "lapack.steqr", "blas.gemm_backxform",
}

const replayPrefix = "replay:"

// legCost is what the traced call of a leg allocated.
type legCost struct{ allocMB, mallocs float64 }

// cycle is one pass of the replay suite: the spans it recorded are those of
// tracer round c; costs and counts are those of its traced calls.
type cycle struct {
	costs  map[string]legCost
	counts map[string]float64
}

func runTraced(name string, seed int64, budget time.Duration) (result, detail) {
	var t tally
	h := newHostRef(budgets[name])
	w, _, _ := setup(name, seed, &t, h)
	start := time.Now()

	// Tracing overhead: alternate untraced and traced rounds of the workload.
	tr := newTracer()
	plain, traced := newMeasured(w), newMeasured(w)
	var ms [2]runtime.MemStats
	r := newRound(w.batchLegs())
	for time.Since(start) < budget*3/10 || len(traced.norm) < 2 {
		timeRound(w, h, &t, nil, &ms, r)
		plain.add(r)
		timeRound(w, h, &t, tr, &ms, r)
		traced.add(r)
	}
	h.stop()
	refs := append(plain.refs, traced.refs...)
	overhead := median(traced.norm)/median(plain.norm) - 1

	// The replay suite over all three workloads.
	s := newSuite(seed, &t)
	tr = newTracer()
	var cycles []cycle
	for len(cycles) == 0 || time.Since(start) < budget {
		cycles = append(cycles, s.cycle(tr))
		tr.round++
	}

	values := reduce(tr, cycles)
	values["host.ref_s_p50"] = []float64{median(refs)}
	values["host.ref_drift"] = []float64{drift(refs)}
	values["trace.overhead_frac"] = []float64{overhead}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{median(values[pl.name]), pl.unit}
	}
	diag := map[string]float64{"cycles": float64(len(cycles)), "resid_ratio_max": t.maxRatio,
		"replay_mismatches": float64(s.mismatches)}
	self := map[string][]float64{}
	for i, st := range tr.selfTimes() {
		self[tr.spans[i].Name] = append(self[tr.spans[i].Name], st)
	}
	for n, v := range self {
		diag["self_s."+n] = median(v)
	}
	fp := newFingerprint(w, seed)
	fp.RefDrift = drift(refs)
	if err := tr.write(outDir, fmt.Sprintf("%s-seed%d-spans.json", name, seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return res, detail{fp, diag}
}

// suite holds the three workloads and the probe inputs of the replay suite.
type suite struct {
	t          *tally
	mismatches int // replays whose outputs differed from the call's
	workloads  []*workload
	probes     []func(tr *tracer)
}

func newSuite(seed int64, t *tally) *suite {
	s := &suite{t: t}
	for _, n := range workloadNames {
		s.workloads = append(s.workloads, generators[n](seed))
	}
	rng := newRng(seed, 4)
	s.probes = []func(tr *tracer){
		gemmProbe[float64](rng, 1024, 1, "blas.gemm_f64_1024_w1"),
		gemmProbe[float64](rng, 1024, 2, "blas.gemm_f64_1024_w2"),
		gemmProbe[complex128](rng, 384, 2, "blas.gemm_c128_384_w2"),
		getrfProbe(rng, 1024, 1, "lapack.getrf_1024_w1"),
		getrfProbe(rng, 1024, 2, "lapack.getrf_1024_w2"),
		smallGemmProbe[float32](rng, "blas.gemm_f32_n32"),
		smallGemmProbe[float64](rng, "blas.gemm_f64_n32"),
		smallGetrfProbe(rng, "lapack.getrf_f32_n32"),
		example3Probe(rng, s.t),
	}
	return s
}

// cycle runs every leg of every workload traced and replayed, then the
// probes, all checked.
func (s *suite) cycle(tr *tracer) cycle {
	c := cycle{costs: map[string]legCost{}, counts: map[string]float64{}}
	var ms [2]runtime.MemStats
	for _, w := range s.workloads {
		useWorkers(w.workers)
		runtime.GC()
		for _, l := range w.legs {
			l.prep()
			runtime.ReadMemStats(&ms[0])
			id := tr.begin(l.name)
			l.run()
			tr.end(id)
			runtime.ReadMemStats(&ms[1])
			c.costs[l.name] = legCost{
				allocMB: float64(ms[1].TotalAlloc-ms[0].TotalAlloc) / 1e6,
				mallocs: float64(ms[1].Mallocs - ms[0].Mallocs),
			}
			r, f := l.check()
			s.t.add(l.calls, f, r)
			if l.counts != nil {
				for k, v := range l.counts() {
					c.counts[k] = v
				}
			}
			if l.replay == nil {
				continue
			}
			want := l.digest()
			l.prep()
			id = tr.begin(replayPrefix + l.name)
			l.replay(tr)
			tr.end(id)
			r, f = l.check()
			if l.digest() != want {
				fmt.Fprintf(os.Stderr, "perfbench: the replay of %s differs from the call\n", l.name)
				s.mismatches++
				f = l.calls
			}
			s.t.add(l.calls, f, r)
		}
	}
	// The probes carry their own budgets; Example 3's default-config calls
	// run on the dense workload's.
	useWorkers(s.workloads[0].workers)
	for _, p := range s.probes {
		p(tr)
	}
	return c
}

// reduce turns each cycle's spans into per-layer values, one per cycle.
func reduce(tr *tracer, cycles []cycle) map[string][]float64 {
	// root[i] is the outermost span enclosing span i.
	root := make([]int, len(tr.spans))
	for i, sp := range tr.spans {
		root[i] = i
		if sp.Parent >= 0 {
			root[i] = root[sp.Parent]
		}
	}
	values := map[string][]float64{}
	add := func(k string, v float64) { values[k] = append(values[k], v) }
	for ci, c := range cycles {
		// dur[n] sums spans named n; under[r][n] sums spans named n below
		// the root span named r; kids[r] sums the direct children of r.
		dur := map[string]float64{}
		under := map[string]map[string]float64{}
		kids := map[string]float64{}
		for i, sp := range tr.spans {
			if sp.Round != ci {
				continue
			}
			d := float64(sp.End-sp.Start) / 1e9
			dur[sp.Name] += d
			if root[i] != i {
				rn := tr.spans[root[i]].Name
				if under[rn] == nil {
					under[rn] = map[string]float64{}
				}
				under[rn][sp.Name] += d
				if sp.Parent == root[i] {
					kids[rn] += d
				}
			}
		}
		phase := func(leg, name string) float64 { return under[replayPrefix+leg][name] }
		n1, n2, n3 := 1024.0, 768.0, 384.0
		add("blas.gemm_f64_1024.gflops", 2*n1*n1*n1/dur["blas.gemm_f64_1024_w2"]/1e9)
		add("blas.gemm_f64.speedup_w2", dur["blas.gemm_f64_1024_w1"]/dur["blas.gemm_f64_1024_w2"])
		add("lapack.getrf.gflops", 2*n1*n1*n1/3/phase("la.gesv_f64_1024", "lapack.getrf")/1e9)
		add("lapack.getrf.speedup_w2", dur["lapack.getrf_1024_w1"]/dur["lapack.getrf_1024_w2"])
		add("lapack.potrf.gflops", n1*n1*n1/3/phase("la.posv_f64_1024", "lapack.potrf")/1e9)
		m, n := 2048.0, 512.0
		add("lapack.geqrf.gflops", (2*m*n*n-2*n*n*n/3)/phase("la.gels_f64_2048x512", "lapack.geqrf")/1e9)
		add("lapack.sytrf.gflops", n2*n2*n2/3/phase("la.sysv_f64_768", "lapack.sytrf")/1e9)
		add("blas.gemm_c128_384.gflops", 8*n3*n3*n3/dur["blas.gemm_c128_384_w2"]/1e9)
		add("lapack.getrf_c128.gflops", 8*n3*n3*n3/3/phase("la.gesv_c128_384", "lapack.getrf_c128")/1e9)
		add("lapack.hetrf_c128.s", phase("la.hesv_c128_384", "lapack.hetrf_c128"))

		spectral := []string{"la.gesvd_f64_384", "la.gesvd_f64_256x768", "la.syevd_f64_384", "la.syev_f64_256"}
		total := 0.0
		for _, l := range spectral {
			total += dur[replayPrefix+l]
		}
		for _, p := range spectralPhases {
			s := 0.0
			for _, l := range spectral {
				s += phase(l, p)
			}
			add(p+".s", s)
			add(p+".share", s/total)
		}
		for metric, legs := range coverage {
			covered, call := 0.0, 0.0
			for _, l := range legs {
				covered += kids[replayPrefix+l]
				call += dur[l]
			}
			add(metric, covered/call)
		}
		add("la.gesvd.alloc_mb", c.costs["la.gesvd_f64_384"].allocMB)
		add("la.syevd.alloc_mb", c.costs["la.syevd_f64_384"].allocMB)

		const smallCalls = 1024
		add("blas.gemm_f32_n32.gflops", smallCalls*2*32*32*32/dur["blas.gemm_f32_n32"]/1e9)
		add("blas.gemm_f64_n32.gflops", smallCalls*2*32*32*32/dur["blas.gemm_f64_n32"]/1e9)
		add("lapack.getrf_f32_n32.s", dur["lapack.getrf_f32_n32"]/smallCalls)
		for k, v := range c.counts {
			add(k, v)
		}
		direct := phase("la.gesv_f64_n8x4096", "lapack.gesv_n8")
		add("la.gesv_n8.overhead_frac", dur["la.gesv_f64_n8x4096"]/direct-1)
		add("f77.gesv_n8.overhead_frac", dur["f77.gesv_f64_n8x4096"]/direct-1)
		add("la.gesv_n8.mallocs_per_call", c.costs["la.gesv_f64_n8x4096"].mallocs/4096)
		add("blas.batchrange.efficiency", phase("la.batchgesv_f64_n32x1024", "lapack.gesv_n32")/(2*dur["la.batchgesv_f64_n32x1024"]))
		add("la.example3.overhead_frac", dur["la.example3"]/dur["f77.example3"]-1)
	}
	return values
}

// gemmProbe times one n×n×n product on the given worker budget.
func gemmProbe[T la.Scalar](rng *lapack.Rng, n, workers int, name string) func(*tracer) {
	a, b, c := uniform[T](rng, n, n), uniform[T](rng, n, n), la.NewMatrix[T](n, n)
	cfg := callCfg(workers)
	one, zero := core.FromFloat[T](1), core.FromFloat[T](0)
	return func(tr *tracer) {
		tr.do(name, func() {
			blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, n, n, n, one, a.Data, n, b.Data, n, zero, c.Data, n)
		})
	}
}

// getrfProbe times one n×n LU factorization on the given worker budget.
func getrfProbe(rng *lapack.Rng, n, workers int, name string) func(*tracer) {
	a := newBuffer(uniform[float64](rng, n, n))
	ipiv := make([]int, n)
	cfg := callCfg(workers)
	return func(tr *tracer) {
		a.reset()
		tr.do(name, func() { lapack.Getrf(cfg, n, n, a.work.Data, n, ipiv) })
	}
}

// smallGemmProbe times 1024 serial 32×32×32 products, the size the mixed
// batch's refinement and the pack-free engine work at.
func smallGemmProbe[T la.Scalar](rng *lapack.Rng, name string) func(*tracer) {
	a, b, c := uniform[T](rng, 32, 32), uniform[T](rng, 32, 32), la.NewMatrix[T](32, 32)
	cfg := callCfg(1)
	one, zero := core.FromFloat[T](1), core.FromFloat[T](0)
	return func(tr *tracer) {
		tr.do(name, func() {
			for i := 0; i < 1024; i++ {
				blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, 32, 32, 32, one, a.Data, 32, b.Data, 32, zero, c.Data, 32)
			}
		})
	}
}

// smallGetrfProbe times 1024 serial float32 LU factorizations of order 32,
// the low-precision factorization of the mixed batch.
func smallGetrfProbe(rng *lapack.Rng, name string) func(*tracer) {
	a := newBuffer(uniform[float32](rng, 32, 32))
	ipiv := make([]int, 32)
	cfg := callCfg(1)
	return func(tr *tracer) {
		tr.do(name, func() {
			for i := 0; i < 1024; i++ {
				a.reset()
				lapack.Getrf(cfg, 32, 32, a.work.Data, 32, ipiv)
			}
		})
	}
}

// example3Probe is the paper's Example 3: one N=500, NRHS=2 system solved
// through f77.GESV and through la.GESV, both checked.
func example3Probe(rng *lapack.Rng, t *tally) func(*tracer) {
	const n, nrhs = 500, 2
	a0, b0 := uniform[float64](rng, n, n), uniform[float64](rng, n, nrhs)
	fa, fb := newBuffer(a0), newBuffer(b0)
	a, b := newBuffer(a0), newBuffer(b0)
	ipiv := make([]int, n)
	return func(tr *tracer) {
		fa.reset()
		fb.reset()
		var info int
		tr.do("f77.example3", func() { info = f77.GESV(n, nrhs, fa.work.Data, n, ipiv, fb.work.Data, n) })
		var ferr error
		if info != 0 {
			ferr = &la.Error{Routine: "GESV", Info: info}
		}
		a.reset()
		b.reset()
		var err error
		tr.do("la.example3", func() { _, err = la.GESV(a.work, b.work) })
		var r float64
		var f int
		ratioCheck(ferr, solveRatio(a0, fb.work, b0), &r, &f)
		ratioCheck(err, solveRatio(a0, b.work, b0), &r, &f)
		t.add(2, f, r)
	}
}
