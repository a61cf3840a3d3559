package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

// steady is the steadiness report: it runs each workload -runs times per
// set, each run a fresh process of run_seconds from BENCHMARK.json with the
// next seed (1, 2, ...), and prints every end-to-end metric's median,
// quartiles and spread (the quartile distance over the median) per set. A
// metric whose spread exceeds its bound in BENCHMARK.json is marked
// unresolved. With two or more sets it adds an A/A comparison: each set's
// median against the first set's, in the metric's worse direction, marked
// out when it moves by more than the bound. The exit status is 1 when
// anything is marked.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload per set")
	sets := fs.Int("sets", 2, "sets of runs; two or more add the A/A comparison")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := readConfig("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// values[workload][set][metric] lists one value per run.
	values := map[string][]map[string][]float64{}
	seed := 1
	for s := 0; s < *sets; s++ {
		for _, w := range workloadNames {
			values[w] = append(values[w], map[string][]float64{})
		}
		for i := 0; i < *runs; i++ {
			for _, w := range workloadNames {
				res, err := runOnce(ctx, exe, w, seed, cfg.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				fmt.Fprintf(os.Stderr, "set %d %-8s seed %-3d", s+1, w, seed)
				for _, m := range cfg.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[w][s][m.Name] = append(values[w][s][m.Name], v)
					fmt.Fprintf(os.Stderr, " %s=%.5g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr)
				seed++
			}
		}
	}

	marked := false
	for _, w := range workloadNames {
		fmt.Printf("\nworkload %s: %d runs per set, %d s each\n", w, *runs, cfg.RunSeconds)
		fmt.Printf("%-20s %-4s %12s %12s %12s %8s %6s  %s\n", "metric", "set", "median", "q1", "q3", "spread", "bound", "")
		for _, m := range cfg.EndToEnd {
			base := 0.0
			for s, set := range values[w] {
				q1, med, q3 := quartiles(set[m.Name])
				sp := (q3 - q1) / med
				note := "ok"
				if sp > m.Bound {
					note, marked = "UNRESOLVED", true
				}
				if s == 0 {
					base = med
				} else {
					worse := med/base - 1
					if m.Better == "higher" {
						worse = 1 - med/base
					}
					verdict := "A/A ok"
					if worse > m.Bound {
						verdict, marked = "A/A OUT", true
					}
					note += fmt.Sprintf("; %s (%+.2f%% worse than set 1)", verdict, 100*worse)
				}
				fmt.Printf("%-20s %-4d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s\n",
					m.Name, s+1, med, q1, q3, 100*sp, 100*m.Bound, note)
			}
		}
	}
	if marked {
		return errors.New("some metrics are unresolved or moved beyond their bound")
	}
	return nil
}

// config is the part of BENCHMARK.json the report needs.
type config struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readConfig(path string) (config, error) {
	var c config
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// runOnce runs one untraced benchmark process and parses its result line.
func runOnce(ctx context.Context, exe, workload string, seed, seconds int) (result, error) {
	var res result
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result: %w", err)
	}
	return res, nil
}
