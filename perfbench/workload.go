package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/debug"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/la"
)

// A workload is a fixed list of legs run in order as one round. A leg is
// one driver call, or one loop of small calls, on inputs generated once from
// the seed: prep copies the inputs into preallocated call buffers, run makes
// the timed call(s) and stores any driver error, check applies the output
// oracle to every call of the leg, and replay re-runs the call as the
// sequence of internal/lapack and internal/blas phases the driver makes,
// each phase inside a span.
type leg struct {
	name   string  // interface and call, e.g. "la.gesv_f64_1024"
	calls  int     // driver calls per run
	flops  float64 // nominal flop count per run, for the gflops diagnostic
	prep   func()
	run    func()
	check  func() (maxRatio float64, failed int)
	batch  bool // one batch-driver call that spreads its items over all the workers
	replay func(tr *tracer)
	out    func(h hash.Hash)         // writes the outputs the check reads, bit for bit
	counts func() map[string]float64 // counters the driver reported on its last run, if any
}

// digest hashes a leg's outputs. A replay runs the same kernels as the call
// on the same inputs and configuration, so the two digests must agree; if
// they do not, the replay no longer follows the driver.
func (l *leg) digest() [sha256.Size]byte {
	h := sha256.New()
	l.out(h)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// writeBits writes the bits of each slice to h.
func writeBits[T any](h hash.Hash, xs ...[]T) {
	for _, x := range xs {
		if len(x) > 0 {
			h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), len(x)*int(unsafe.Sizeof(x[0]))))
		}
	}
}

type workload struct {
	name    string
	workers int
	legs    []*leg
}

// generators make each workload from the seed; the inputs' conditioning is
// stated where each workload is built.
var generators = map[string]func(seed int64) *workload{
	"dense":    newDense,
	"spectral": newSpectral,
	"small":    newSmall,
}

var workloadNames = []string{"dense", "spectral", "small"}

// budgets is each workload's worker budget.
var budgets = map[string]int{"dense": 2, "spectral": 1, "small": 2}

// callCfg is the execution context a la driver builds from the process
// default and WithThreads(workers); replays pass it to the phases they
// call, so a replayed phase does exactly what it does inside the driver.
func callCfg(workers int) *core.Config {
	return core.Default().With(func(c *core.Config) { c.Threads = workers })
}

// useWorkers makes workers the process-wide default budget, which the f77
// interface and the oracle's own products read.
func useWorkers(workers int) {
	core.UpdateDefault(func(c *core.Config) { c.Threads = workers })
}

func newRng(seed int64, stream int) *lapack.Rng {
	return lapack.NewRng([4]int{int(seed>>16) & 0xffff, int(seed) & 0xffff, stream, 1})
}

// uniform returns an m×n matrix with entries uniform on (−1, 1) (both parts,
// for complex types).
func uniform[T la.Scalar](rng *lapack.Rng, m, n int) *la.Matrix[T] {
	a := la.NewMatrix[T](m, n)
	lapack.Larnv(2, rng, len(a.Data), a.Data)
	return a
}

// hermitian returns an n×n symmetric (Hermitian) matrix, stored in full,
// with off-diagonal entries uniform on (−1, 1) and real diagonal entries
// uniform on (shift−1, shift+1).
func hermitian[T la.Scalar](rng *lapack.Rng, n int, shift float64) *la.Matrix[T] {
	a := uniform[T](rng, n, n)
	for j := 0; j < n; j++ {
		a.Data[j+j*n] = core.FromFloat[T](core.Re(a.Data[j+j*n]) + shift)
		for i := 0; i < j; i++ {
			a.Data[j+i*n] = core.Conj(a.Data[i+j*n])
		}
	}
	return a
}

// buffer pairs a seeded input with the buffer a driver overwrites.
type buffer[T la.Scalar] struct{ orig, work *la.Matrix[T] }

func newBuffer[T la.Scalar](orig *la.Matrix[T]) buffer[T] {
	return buffer[T]{orig, orig.Clone()}
}

func (b buffer[T]) reset() { copy(b.work.Data, b.orig.Data) }

// ratioCheck folds one call's error and test ratio into a leg's check.
// Only finite ratios of successful calls enter the maximum; every other
// outcome is counted as a failure.
func ratioCheck(err error, ratio float64, maxRatio *float64, failed *int) {
	if err != nil || !passes(ratio) {
		*failed++
	}
	if err == nil && !math.IsInf(ratio, 0) && !math.IsNaN(ratio) {
		*maxRatio = max(*maxRatio, ratio)
	}
}

// tally accumulates the oracle's outcome over a run.
type tally struct {
	attempted, failed int
	maxRatio          float64
}

func (t *tally) add(calls, failed int, ratio float64) {
	t.attempted += calls
	t.failed += failed
	t.maxRatio = max(t.maxRatio, ratio)
}

// runChecked preps, runs and checks one leg outside any timing.
func runChecked(l *leg, t *tally) {
	l.prep()
	l.run()
	r, f := l.check()
	t.add(l.calls, f, r)
}

// round is one timed pass over a workload's legs, or over the segments of a
// set-up. Around every leg the host reference runs on one goroutine; around
// the batch legs of a multi-worker workload, which spread their items over
// all the workers, it runs on all of them instead (see NOTES.md).
type round struct {
	batch    []bool          // per leg: divide by the parallel reference
	legs     []time.Duration // per-leg call time
	serial   []time.Duration // reference on one goroutine before each leg and after the last; 0 where not run
	parallel []time.Duration // the same on all workers, around batch legs
	alloc    uint64          // heap bytes the library allocated inside the calls
}

// newRound makes a round of len(batch) legs, each divided by the reference
// on all the workers where batch is set.
func newRound(batch []bool) *round {
	n := len(batch)
	return &round{batch: batch, legs: make([]time.Duration, n),
		serial: make([]time.Duration, n+1), parallel: make([]time.Duration, n+1)}
}

// batchLegs flags the legs that spread their items over several workers.
func (w *workload) batchLegs() []bool {
	b := make([]bool, len(w.legs))
	for i, l := range w.legs {
		b[i] = l.batch && w.workers > 1
	}
	return b
}

// sample runs the references needed at boundary k, just before leg k (or
// after the last leg for k = n).
func (r *round) sample(h hostRef, k int) {
	n := len(r.legs)
	needParallel := (k > 0 && r.batch[k-1]) || (k < n && r.batch[k])
	needSerial := (k > 0 && !r.batch[k-1]) || (k < n && !r.batch[k])
	r.serial[k], r.parallel[k] = 0, 0
	if needSerial {
		r.serial[k] = h.serial.time()
	}
	if needParallel {
		r.parallel[k] = h.parallel.time()
	}
}

// norm is the round's time in host-reference units: each leg's time over
// the mean of its reference runs just before and just after it, summed.
// Sampling the reference around every leg, rather than once per round,
// tracks host slowdowns on the time scale of the legs.
func (r *round) norm() float64 {
	s := 0.0
	for i, d := range r.legs {
		ref := r.serial
		if r.batch[i] {
			ref = r.parallel
		}
		s += 2 * d.Seconds() / (ref[i] + ref[i+1]).Seconds()
	}
	return s
}

// normPre is norm with only the reference run just before each leg, a
// diagnostic for after-effects of a call (a collection its allocations
// started) that slow the reference after it.
func (r *round) normPre() float64 {
	s := 0.0
	for i, d := range r.legs {
		ref := r.serial
		if r.batch[i] {
			ref = r.parallel
		}
		s += d.Seconds() / ref[i].Seconds()
	}
	return s
}

func (r *round) wall() time.Duration {
	var s time.Duration
	for _, d := range r.legs {
		s += d
	}
	return s
}

// timeRound runs one round. The heap is collected first so that every round
// starts from the same state; then each leg is prepared, timed between two
// reference runs, and checked. Only the calls themselves are timed, and the
// benchmark allocates nothing between the two memory reads around a call,
// so alloc counts library allocation alone. The reference run after a leg
// follows that leg's check and the next leg's prep, so the call's worker
// goroutines have returned; a collection its allocations started may still
// be running (normPre leaves that sample out). With tr non-nil every call is
// also wrapped in a span.
func timeRound(w *workload, h hostRef, t *tally, tr *tracer, ms *[2]runtime.MemStats, r *round) {
	runtime.GC()
	r.alloc = 0
	for i, l := range w.legs {
		l.prep()
		r.sample(h, i)
		runtime.ReadMemStats(&ms[0])
		t0 := time.Now()
		if tr != nil {
			id := tr.begin(l.name)
			l.run()
			tr.end(id)
		} else {
			l.run()
		}
		r.legs[i] = time.Since(t0)
		runtime.ReadMemStats(&ms[1])
		r.alloc += ms[1].TotalAlloc - ms[0].TotalAlloc
		ratio, failed := l.check()
		t.add(l.calls, failed, ratio)
	}
	r.sample(h, len(w.legs))
}

// measured is the outcome of a run's timed phase.
type measured struct {
	norm, normPre []float64
	wall, allocMB []float64
	refs          []float64   // every one-goroutine reference sample, seconds
	legs          [][]float64 // per leg, per round, seconds
}

func newMeasured(w *workload) measured { return measured{legs: make([][]float64, len(w.legs))} }

// measure runs rounds until the time budget is spent. Before every round it
// calls between with the time spent so far.
func measure(w *workload, h hostRef, t *tally, budget time.Duration, between func(elapsed time.Duration)) measured {
	m := newMeasured(w)
	var ms [2]runtime.MemStats
	r := newRound(w.batchLegs())
	start := time.Now()
	for time.Since(start) < budget {
		between(time.Since(start))
		timeRound(w, h, t, nil, &ms, r)
		m.add(r)
	}
	return m
}

// allocRounds is how many rounds allocPerRound measures after its warm-up.
const allocRounds = 3

// allocPerRound measures the heap bytes the library allocates in one round,
// as the median of allocRounds untimed rounds with the collector off and
// one P. In the timed rounds a collection may start inside any call and
// empties the library's pooled scratch (a sync.Pool) when it does, at times
// that vary from run to run, and the pool keeps a cache per P, so what a
// call allocates there varies too (a spectral round from about 40 to
// 65 MB). Here two collections empty the pool, one warm-up round fills it,
// and every later round allocates what a round allocates with a warm pool.
func allocPerRound(w *workload, h hostRef, t *tally) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var ms [2]runtime.MemStats
	r := newRound(w.batchLegs())
	allocs := make([]float64, 0, allocRounds)
	for i := 0; i <= allocRounds; i++ {
		timeRound(w, h, t, nil, &ms, r)
		if i > 0 {
			allocs = append(allocs, float64(r.alloc)/1e6)
		}
	}
	return median(allocs)
}

func (m *measured) add(r *round) {
	m.norm = append(m.norm, r.norm())
	m.normPre = append(m.normPre, r.normPre())
	m.wall = append(m.wall, r.wall().Seconds())
	m.allocMB = append(m.allocMB, float64(r.alloc)/1e6)
	for _, d := range r.serial {
		if d > 0 {
			m.refs = append(m.refs, d.Seconds())
		}
	}
	for i, d := range r.legs {
		m.legs[i] = append(m.legs[i], d.Seconds())
	}
}

// setup generates a workload from the seed and makes one untimed, checked
// call of every leg, which takes the cold costs (page faults, pool fills)
// out of the timed rounds. It returns the set-up time raw and in
// host-reference units, the latter measured like a round whose first leg is
// the input generation and whose other legs are the first calls.
func setup(name string, seed int64, t *tally, h hostRef) (*workload, time.Duration, float64) {
	ref := h.serial.time()
	t0 := time.Now()
	w := generators[name](seed)
	gen := time.Since(t0)
	useWorkers(w.workers)
	r := newRound(append([]bool{false}, w.batchLegs()...))
	r.serial[0], r.legs[0] = ref, gen
	for i, l := range w.legs {
		r.sample(h, i+1)
		t1 := time.Now()
		runChecked(l, t)
		r.legs[i+1] = time.Since(t1)
	}
	r.sample(h, len(r.legs))
	return w, r.wall(), r.norm()
}

func checkWorkload(name string) error {
	if _, ok := generators[name]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return nil
}
