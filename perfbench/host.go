package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// The host reference: a fixed amount of pure-Go work that imports nothing
// from the library and allocates nothing. It runs before and after every
// timed call, and a round's time is reported in multiples of it, which
// cancels most of the drift of a shared virtual machine (see NOTES.md).
const (
	refLen    = 1 << 14 // float64s per goroutine: a 128 KiB working set
	refPasses = 192     // 2–4 ms on a 2-vCPU Xeon KVM guest
)

// reference runs the reference loop on a fixed number of goroutines at
// once, each over its own buffer; on more than one it also sees whether the
// host gives every goroutine a CPU. The helper goroutines live until stop.
type reference struct {
	bufs  [][]float64
	start []chan struct{} // one per helper goroutine
	done  chan struct{}   // one send per helper per run, buffered to that count
}

func newReference(workers int) *reference {
	r := &reference{done: make(chan struct{}, workers-1)}
	for i := 0; i < workers; i++ {
		r.bufs = append(r.bufs, make([]float64, refLen))
	}
	for _, buf := range r.bufs[1:] {
		start := make(chan struct{})
		r.start = append(r.start, start)
		go func() {
			for range start {
				sweep(buf)
				r.done <- struct{}{}
			}
		}()
	}
	return r
}

// time runs the reference once and returns its wall time.
func (r *reference) time() time.Duration {
	t0 := time.Now()
	for _, start := range r.start {
		start <- struct{}{}
	}
	sweep(r.bufs[0])
	for range r.start {
		<-r.done
	}
	return time.Since(t0)
}

func (r *reference) stop() {
	for _, start := range r.start {
		close(start)
	}
}

// hostRef is the reference on one goroutine and on all of a workload's
// workers (the same value for a one-worker workload).
type hostRef struct{ serial, parallel *reference }

func newHostRef(workers int) hostRef {
	h := hostRef{serial: newReference(1)}
	h.parallel = h.serial
	if workers > 1 {
		h.parallel = newReference(workers)
	}
	return h
}

// stop ends the helper goroutines; only the parallel reference has any.
func (h hostRef) stop() { h.parallel.stop() }

// sweep makes refPasses multiply-add passes over x. The iteration
// x ← x/2 + 1 keeps every value finite.
func sweep(x []float64) {
	for p := 0; p < refPasses; p++ {
		for i := range x {
			x[i] = x[i]*0.5 + 1
		}
	}
}

// fingerprint identifies the machine, toolchain and sources a result came
// from.
type fingerprint struct {
	CPU       string  `json:"cpu"`
	NProc     int     `json:"nproc"`
	GoAMD64   string  `json:"goamd64"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	SourceSHA string  `json:"source_sha256"`
	Workload  string  `json:"workload"`
	Workers   int     `json:"workers"`
	Seed      int64   `json:"seed"`
	RefDrift  float64 `json:"host.ref_drift"`
}

func newFingerprint(w *workload, seed int64) fingerprint {
	fp := fingerprint{
		CPU:       cpuModel(),
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Commit:    "unknown",
		SourceSHA: sourceHash("."),
		Workload:  w.name,
		Workers:   w.workers,
		Seed:      seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				fp.GoAMD64 = s.Value
			case "vcs.revision":
				fp.Commit = s.Value
			}
		}
	}
	if fp.GoAMD64 == "" && runtime.GOARCH == "amd64" {
		fp.GoAMD64 = "v1"
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every Go source and module file under root, skipping
// hidden directories such as the build cache. The benchmark may run from a
// checkout without git metadata; the digest then stands in for the commit.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".s") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
