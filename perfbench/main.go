// Command perfbench is the repository's benchmark: four workloads that
// drive the simulator and the sweep service through their exported APIs
// inside one process, check every output, and print end-to-end metrics
// (or, with --trace 1, per-layer metrics from a span-traced replay).
// README.md in this directory explains each workload and metric.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --report <runs> --seconds <s>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it are
// "# "-prefixed human-readable detail: the host fingerprint, each
// metric with its sample count, and the exact simulated counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one named traffic mix. run measures it untraced and
// returns end-to-end metrics; trace replays it with spans and returns
// per-layer metrics.
type workloadDef struct {
	name  string
	why   string
	run   func(*env) (*result, error)
	trace func(*env) (*result, error)
}

var workloads = []workloadDef{
	{"sweep-cold", "Fig-4 batch sweep into an empty cache: core and rename do the work", runSweepCold, traceSweepCold},
	{"sampled-ff", "functional fast-forward with short detailed samples: emu and core construction", runSampled, traceSampled},
	{"serve-aged", "one in-process daemon over an aged cache: admission, Get/Put, encode, stream", runServeAged, traceServeAged},
	{"serve-routed", "the same traffic through an in-process shard router and two workers", runServeRouted, traceServeRouted},
}

// env is one invocation's fixed inputs and scratch space.
type env struct {
	seed    int64
	seconds time.Duration
	nproc   int
	state   string // per-checkout state, kept across runs (aged cache, digests)
	work    string // per-run scratch, removed on exit
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload reports. attempted counts operations (cells
// or samples); failed counts failed, refused and wrong-output ones.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	samples           map[string]int    // metric -> sample count, for the detail lines
	counts            map[string]string // exact simulated counts, printed verbatim
	mismatches        []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}, counts: map[string]string{}}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{v, unit}
	r.samples[name] = n
}

// fail records one wrong or failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep-cold, sampled-ff, serve-aged, serve-routed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced replay printing per-layer metrics")
	state := flag.String("state", ".bench_build", "directory for state kept across runs")
	reportRuns := flag.Int("report", 0, "steadiness report: run every workload this many times (fresh processes)")
	only := flag.String("only", "", "with --report: comma-separated workloads (default all)")
	flag.Parse()

	if *reportRuns > 0 {
		if err := steadiness(*reportRuns, *seconds, *only, *state); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	w := workloads[i]
	os.Exit(runOne(w, *seed, *seconds, *trace == 1, *state))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func runOne(w workloadDef, seed int64, seconds int, traced bool, state string) int {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(state, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, nproc: nproc, state: state, work: work}

	host := fingerprint(seed)
	hb, _ := json.Marshal(host) // a map of strings always marshals
	fmt.Printf("# host %s\n", hb)
	fmt.Printf("# workload %s seed %d seconds %d trace %v\n", w.name, seed, seconds, traced)

	// The aged cache is built by whichever run comes first in a checkout
	// (that run may take minutes), so no serving run pays for it.
	if _, err := agedDir(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: aging the serving cache: %v\n", err)
		return 1
	}
	fn := w.run
	if traced {
		fn = w.trace
	}
	steal0, total0 := cpuStolen()
	r, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if steal1, total1 := cpuStolen(); total1 > total0 {
		// Time the hypervisor gave this VM's vCPUs to others: the main
		// cause of run-to-run spread on a shared host.
		fmt.Printf("# host steal_frac %.4f\n", float64(steal1-steal0)/float64(total1-total0))
	}
	if !traced {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			r.set("max_rss_mb", float64(ru.Maxrss)/1024, "MB", 1) // Linux reports KiB
		}
	}
	return report(r)
}

// report prints the detail lines and the result line; it returns the
// exit code: 1 on any output mismatch.
func report(r *result) int {
	for _, k := range sortedKeys(r.counts) {
		fmt.Printf("# count %s = %s\n", k, r.counts[k])
	}
	for _, k := range sortedKeys(r.metrics) {
		m := r.metrics[k]
		fmt.Printf("# metric %-28s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, r.samples[k])
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("# error_frac %g (%d of %d)\n", errFrac, r.failed, r.attempted)
	for _, m := range r.mismatches {
		fmt.Printf("# MISMATCH %s\n", m)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:maporder keys are collected then sorted before return
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// fingerprint identifies the host and build, so numbers are never
// compared across machines by accident.
func fingerprint(seed int64) map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     gitCommit("."),
		"seed":       fmt.Sprint(seed),
	}
}

// cpuStolen returns the steal and total jiffies of all CPUs from
// /proc/stat (zeros where it is unreadable).
func cpuStolen() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gitCommit reads HEAD without running git; a checkout exported
// without .git reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
