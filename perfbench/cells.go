package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vca/internal/core"
	"vca/internal/experiments"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/server"
	"vca/internal/simcache"
	"vca/internal/workload"
)

// archByName maps the service's public arch names onto the experiment
// harness, so the traced replay can build the same machine a served
// cell builds. cellMachine checks the result against server.CellKey.
var archByName = map[string]experiments.Arch{
	"baseline":       experiments.ArchBaseline,
	"conv-windowed":  experiments.ArchConvWindow,
	"ideal-windowed": experiments.ArchIdealWindow,
	"vca-flat":       experiments.ArchVCAFlat,
	"vca-windowed":   experiments.ArchVCAWindow,
}

// cellMachine resolves a service cell to the configuration and programs
// server.RunCell simulates, and proves it by comparing content
// addresses with server.CellKey.
func cellMachine(c server.Cell) (core.Config, []*program.Program, bool, error) {
	arch := archByName[c.Arch]
	cfg, ok := arch.Config(len(strings.Split(c.Benchmarks, ",")), c.PhysRegs, c.DL1Ports)
	if !ok {
		return cfg, nil, false, fmt.Errorf("cell %+v has no valid configuration", c)
	}
	var progs []*program.Program
	for _, name := range strings.Split(c.Benchmarks, ",") {
		p, err := buildProgram(name, arch.ABI())
		if err != nil {
			return cfg, nil, false, err
		}
		progs = append(progs, p)
	}
	cfg.StopAfter = c.StopAfter
	cfg.MaxCycles = 1 << 34
	windowed := arch.ABI() == minic.ABIWindowed
	want, _, err := server.CellKey(c)
	if err != nil {
		return cfg, nil, false, err
	}
	if got := simcache.Key(cfg, progs, windowed); got != want {
		return cfg, nil, false, fmt.Errorf("replayed cell %+v keys to %.12s, the service to %.12s", c, got, want)
	}
	return cfg, progs, windowed, nil
}

func buildProgram(name string, abi minic.ABI) (*program.Program, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build(abi)
}

// digest fingerprints one result (index excluded), so repeated cells can
// be compared exactly.
func digest(r server.CellResult) string {
	r.Index = 0
	b, err := json.Marshal(&r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// simCounts accumulates the simulated statistics the benchmark checks
// rather than ranks: they must repeat bit for bit on any host.
type simCounts struct {
	cycles, committed, dl1, traps uint64
}

func (s *simCounts) add(cycles, committed uint64, counters map[string]uint64) {
	s.cycles += cycles
	s.committed += committed
	s.traps += counters["core.window.traps"]
	for k, v := range counters {
		if strings.HasPrefix(k, "mem.dl1.accesses.") {
			s.dl1 += v
		}
	}
}

// into publishes the counts as exact strings (and, when traced, as
// per-layer metrics).
func (s *simCounts) into(r *result, traced bool) {
	if s.committed == 0 {
		return
	}
	vals := map[string]float64{
		"core.sim_cpi":                  float64(s.cycles) / float64(s.committed),
		"core.sim_dl1_per_kinst":        float64(s.dl1) * 1000 / float64(s.committed),
		"rename.window_traps_per_kinst": float64(s.traps) * 1000 / float64(s.committed),
	}
	for _, k := range sortedKeys(vals) {
		v := vals[k]
		r.counts[k] = fmt.Sprintf("%.17g", v)
		if traced {
			r.set(k, v, "ratio", 1)
		}
	}
}

// digestBook checks per-cell digests against the ones earlier runs in
// this checkout recorded, so "the same cell gives the same result"
// holds across runs and seeds, not only within one run.
type digestBook struct {
	mu    sync.Mutex
	path  string
	known map[string]string
	added bool
}

func openDigests(e *env, name string) *digestBook {
	d := &digestBook{path: filepath.Join(e.state, "digests-"+name+".json"), known: map[string]string{}}
	if b, err := os.ReadFile(d.path); err == nil {
		if json.Unmarshal(b, &d.known) != nil {
			d.known = map[string]string{} // unreadable: start over
		}
	}
	return d
}

// check records or compares one digest; it returns false on mismatch.
func (d *digestBook) check(id, sum string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.known[id]; ok {
		return prev == sum
	}
	d.known[id] = sum
	d.added = true
	return true
}

// save writes the book back atomically when it learned new digests.
func (d *digestBook) save() error {
	if !d.added {
		return nil
	}
	b, err := json.Marshal(d.known)
	if err != nil {
		return err
	}
	tmp := d.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.path)
}

func cellID(c server.Cell) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d", c.Arch, c.Benchmarks, c.PhysRegs, c.DL1Ports, c.StopAfter)
}

func (s *simCounts) merge(o simCounts) {
	s.cycles += o.cycles
	s.committed += o.committed
	s.dl1 += o.dl1
	s.traps += o.traps
}
