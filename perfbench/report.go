package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steadiness runs each workload `runs` times, each in a fresh process
// with its own seed, and prints per metric the median, quartiles,
// min–max, spread (interquartile range over median) and sample count.
// An end-to-end metric whose spread exceeds a tenth is flagged.
func steadiness(runs, seconds int, only, state string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", mustJSON(fingerprint(0)))
	for _, w := range workloads {
		if only != "" && !strings.Contains(","+only+",", ","+w.name+",") {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var counts []string // "# count" lines: exact, so equal in every run
		var steal []float64
		for i := 0; i < runs; i++ {
			seed := int64(1000 + i)
			var stdout bytes.Buffer
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0", "--state", state)
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var cs []string
			for _, l := range lines {
				if strings.HasPrefix(l, "# count ") {
					cs = append(cs, l)
				}
				if v, ok := strings.CutPrefix(l, "# host steal_frac "); ok {
					if f, err := strconv.ParseFloat(v, 64); err == nil {
						steal = append(steal, f)
					}
				}
			}
			if i == 0 {
				counts = cs
			} else if !slices.Equal(cs, counts) {
				return fmt.Errorf("%s seed %d: simulated counts %q differ from the first run's %q", w.name, seed, cs, counts)
			}
			var out struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
			}
			if !out.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", w.name, seed)
			}
			for _, k := range sortedKeys(out.Metrics) {
				values[k] = append(values[k], out.Metrics[k].Value)
				units[k] = out.Metrics[k].Unit
			}
		}
		fmt.Printf("\n%s (%d runs, %d s each)\n", w.name, runs, seconds)
		for _, c := range counts {
			fmt.Printf("  %s (every run)\n", strings.TrimPrefix(c, "# "))
		}
		if len(steal) > 0 {
			fmt.Printf("  host steal_frac per run: %.3f (median %.3f)\n", steal, median(steal))
		}
		fmt.Printf("  %-16s %12s %12s %12s %12s %12s %8s %3s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "n")
		for _, k := range sortedKeys(values) {
			xs := values[k]
			q1, q2, q3 := quartiles(xs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := (q3 - q1) / q2
			flag := ""
			if spread > 0.1 && k != "setup_s" {
				flag = "  SPREAD > 0.1"
			}
			fmt.Printf("  %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %3d %s%s\n", k, q2, q1, q3, lo, hi, spread, len(xs), units[k], flag)
		}
	}
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
