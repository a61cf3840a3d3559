// Command perfbench is the repository's benchmark: three workloads of la
// and f77 driver calls, each run from one process with an explicit worker
// budget, with every call's output checked by the Appendix-F oracle.
//
//	perfbench --workload dense --seed 1 --seconds 20 --trace 0
//	perfbench --workload dense --seed 1 --seconds 20 --trace 1
//	perfbench steady -runs 10 -sets 2
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run replays every driver as its
// internal/lapack and internal/blas phases and reports per-layer metrics.
// The line before it carries the fingerprint and the diagnostics. The
// steady subcommand runs the benchmark repeatedly and reports its spread
// (see steady.go). NOTES.md gives the reasons for each workload and the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir receives result and trace files, relative to the working
// directory (the checkout root).
const outDir = ".bench_build/results"

// setups is how many times a run sets its workload up; setup_s comes from
// their median. The first set-up makes the workload the rounds run on; the
// others are spread evenly over the measured phase, between rounds, so that
// the median sees the host over the whole run, not over its first seconds.
const setups = 9

// refSeconds converts set-up time from host-reference units to seconds. It
// is about the median reference time on the 2-vCPU Xeon KVM guest the
// benchmark was designed on, so setup_s reads as the set-up time such a
// host gives when the reference runs at that speed (see NOTES.md).
const refSeconds = 2.5e-3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type detail struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Diagnostics map[string]float64 `json:"diagnostics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: dense, spectral or small")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 replays the drivers under spans and reports per-layer metrics; any other value measures end to end")
	flag.Parse()
	if err := checkWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var det detail
	if *trace == 1 {
		res, det = runTraced(*name, *seed, budget)
	} else {
		res, det = runTimed(*name, *seed, budget)
	}
	res.Correct = res.Failed == 0
	if err := emit(res, det, *name, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d calls failed the output check\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// runTimed is the end-to-end run: set-up, then timed rounds until the
// budget is spent, with the other set-ups between them.
func runTimed(name string, seed int64, budget time.Duration) (result, detail) {
	var t tally
	h := newHostRef(budgets[name])
	defer h.stop()
	var setupRaw, setupNorm []float64
	var w *workload
	resetup := func() {
		runtime.GC()
		sw, d, norm := setup(name, seed, &t, h)
		setupRaw, setupNorm = append(setupRaw, d.Seconds()), append(setupNorm, norm)
		if w == nil {
			w = sw
		}
	}
	resetup()
	m := measure(w, h, &t, budget, func(elapsed time.Duration) {
		if len(setupRaw) < setups && elapsed >= budget*time.Duration(len(setupRaw))/setups {
			resetup()
		}
	})
	for len(setupRaw) < setups {
		resetup()
	}
	allocMB := allocPerRound(w, h, &t)
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"round_norm_p50":     {median(m.norm), "ratio"},
		"alloc_mb_per_round": {allocMB, "MB"},
		"pass_ratio":         {float64(t.attempted-t.failed) / float64(t.attempted), "ratio"},
		"setup_s":            {median(setupNorm) * refSeconds, "s"},
	}}
	diag := map[string]float64{
		"rounds":             float64(len(m.wall)),
		"round_s_p50":        median(m.wall),
		"round_norm_pre_p50": median(m.normPre),
		"alloc_mb_timed_p50": median(m.allocMB),
		"setup_raw_s":        median(setupRaw),
		"resid_ratio_max":    t.maxRatio,
		"host.ref_s_p50":     median(m.refs),
		"host.ref_drift":     drift(m.refs),
	}
	if p, ok := tailPercentile(len(m.wall)); ok {
		diag[fmt.Sprintf("round_s_p%d", p)] = percentile(m.wall, float64(p))
		diag[fmt.Sprintf("round_norm_p%d", p)] = percentile(m.norm, float64(p))
	}
	flops := 0.0
	for i, l := range w.legs {
		p50 := median(m.legs[i])
		diag[l.name+".s_p50"] = p50
		if l.flops > 0 {
			diag[l.name+".gflops"] = l.flops / p50 / 1e9
			flops += l.flops
		}
	}
	diag["gflops"] = flops / median(m.wall) / 1e9
	fp := newFingerprint(w, seed)
	fp.RefDrift = diag["host.ref_drift"]
	return res, detail{fp, diag}
}

// drift is the largest over the smallest of the reference times.
func drift(ref []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, r := range ref {
		lo, hi = min(lo, r), max(hi, r)
	}
	return hi / lo
}

// emit prints the detail line and the result line, and keeps both in a
// result file. Diagnostics that are not finite numbers are left out.
func emit(res result, det detail, name string, seed int64, trace int) error {
	for k, v := range det.Diagnostics {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			delete(det.Diagnostics, k)
		}
	}
	d, err := json.Marshal(det)
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := os.WriteFile(file, append(append(d, '\n'), append(r, '\n')...), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", d, r)
	return nil
}
