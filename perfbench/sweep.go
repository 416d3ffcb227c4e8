package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"vca/internal/core"
	"vca/internal/server"
	"vca/internal/simcache"
	"vca/internal/workload"
)

// sweep-cold: Fig-4-shaped batch sweeps. One sweep is one benchmark's
// row of the figure — the three architectures at two register-file
// sizes, dual-ported — run through server.RunCells with jobs = nproc
// into a cache that is empty when the sweep starts. A round is one sweep
// per call-frequent benchmark; the seed only orders the rounds' rows,
// so every seed does the same work.
const sweepStopAfter = 120_000 // long enough that Machine.Run is ≥95% of a cell

var (
	sweepArchs = []string{"baseline", "conv-windowed", "vca-windowed"}
	sweepRegs  = []int{128, 256}
)

func sweepRow(bench string, stop uint64) []server.Cell {
	req := server.SweepRequest{Benchmarks: []string{bench}, Archs: sweepArchs, PhysRegs: sweepRegs, DL1Ports: []int{2}, StopAfter: stop}
	cells, err := server.ExpandCells(&req, 0)
	if err != nil {
		panic(err) // fixed, valid request: a failure here is a bug
	}
	return cells
}

func committed(res *core.Result) uint64 {
	var n uint64
	for _, t := range res.Threads {
		n += t.Committed
	}
	return n
}

func callFrequent() []string {
	var names []string
	for _, b := range workload.CallFrequent() {
		names = append(names, b.Name)
	}
	return names
}

// freshCache opens an empty result cache in a new directory under the
// run's scratch space.
func freshCache(e *env, tag string) (*simcache.Cache, error) {
	dir, err := os.MkdirTemp(e.work, tag+"-")
	if err != nil {
		return nil, err
	}
	return simcache.Open(dir)
}

// checkCells verifies one sweep's results: every cell valid and
// error-free, digests equal to every earlier answer for the same cell,
// and the cache's misses == simulations invariant.
func checkCells(r *result, book *digestBook, cells []server.Cell, res []server.CellResult, c *simcache.Cache) {
	for i, cr := range res {
		r.attempted++
		switch {
		case cr.Error != "" || !cr.Valid:
			r.fail("cell %s: valid=%v error=%q", cellID(cells[i]), cr.Valid, cr.Error)
		case !book.check(cellID(cells[i]), digest(cr)):
			r.fail("cell %s: digest differs from an earlier run", cellID(cells[i]))
		}
	}
	if st := c.Stats(); st.Misses != st.Simulations {
		r.fail("cache misses %d != simulations %d", st.Misses, st.Simulations)
	}
}

func sweepSetup(e *env) error {
	c, err := freshCache(e, "warm")
	if err != nil {
		return err
	}
	_, err = server.RunCells(c, e.nproc, sweepRow("crafty", sweepStopAfter))
	return err
}

// order returns which side of a paired replay runs first for unit i:
// 0 is untraced, 1 traced.
func order(i int) [2]int {
	if i%2 == 0 {
		return [2]int{0, 1}
	}
	return [2]int{1, 0}
}

// settle flushes dirty pages (earlier runs' cache writes included) so
// their writeback does not land inside the timed phase.
func settle() { syscall.Sync() }

// setupRuns is how many times a run sets up; setup_s is the median, so
// a single slow start does not decide it.
const setupRuns = 5

// medianSetup runs fn setupRuns times and returns the median wall time
// in seconds.
func medianSetup(fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func runSweepCold(e *env) (*result, error) {
	r := newResult()
	settle()
	setup, err := medianSetup(func() error { return sweepSetup(e) })
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "s", setupRuns)

	book := openDigests(e, "sweep-cold")
	settle()
	benches := callFrequent()
	var (
		sweepMS    []float64 // one per sweep
		roundMinst []float64 // one per round
		roundCells []float64
		counts     simCounts
		start      = time.Now()
	)
	for round := 0; round == 0 || time.Since(start) < e.seconds; round++ {
		var roundTime time.Duration
		var roundInsts, roundN uint64
		for _, bi := range shuffled(e.seed, uint64(round), len(benches)) {
			cells := sweepRow(benches[bi], sweepStopAfter)
			c, err := freshCache(e, "sweep")
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, err := server.RunCells(c, e.nproc, cells)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			checkCells(r, book, cells, res, c)
			os.RemoveAll(c.Dir()) // scratch only; a leftover is removed with the run
			sweepMS = append(sweepMS, ms(d))
			roundTime += d
			for _, cr := range res {
				roundInsts += cr.Committed
				roundN++
				if round == 0 {
					counts.add(cr.Cycles, cr.Committed, cr.Counters)
				}
			}
		}
		roundMinst = append(roundMinst, float64(roundInsts)/roundTime.Seconds()/1e6)
		roundCells = append(roundCells, float64(roundN)/roundTime.Seconds())
	}
	if err := book.save(); err != nil {
		return nil, err
	}
	counts.into(r, false)
	fmt.Printf("# per-round Minst/s %.3f\n", roundMinst)
	r.set("minst_per_s", median(roundMinst), "Minst/s", len(roundMinst))
	r.set("cells_per_s", median(roundCells), "1/s", len(roundCells))
	r.set("sweep_ms_p50", median(sweepMS), "ms", len(sweepMS))
	r.set("sweep_ms_p90", quantile(sweepMS, 0.9), "ms", beyond(sweepMS, 0.9))
	// RunCells hands back every result of a sweep at once, so a batch
	// caller's first result arrives with its last.
	r.set("first_ms_p50", median(sweepMS), "ms", len(sweepMS))
	return r, nil
}

// traceSweepCold replays round one's cells one at a time, each cell
// twice in a row: through server.RunCells (jobs = 1) untraced, and
// through the layers' own public functions with a span around each
// call. Pairing per cell keeps host drift out of the comparison.
func traceSweepCold(e *env) (*result, error) {
	r := newResult()
	var cells []server.Cell
	for _, b := range callFrequent() {
		cells = append(cells, sweepRow(b, sweepStopAfter)...)
	}
	if err := sweepSetup(e); err != nil {
		return nil, err
	}
	uc, err := freshCache(e, "untraced")
	if err != nil {
		return nil, err
	}
	tc, err := freshCache(e, "traced")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var want, got simCounts
	var untraced, traced time.Duration
	for i, cell := range cells {
		// Alternate which side goes first: the second run of a cell
		// finds the host's caches warm.
		for _, side := range order(i) {
			t0 := time.Now()
			if side == 0 {
				res, err := server.RunCells(uc, 1, []server.Cell{cell})
				untraced += time.Since(t0)
				if err != nil {
					return nil, err
				}
				want.add(res[0].Cycles, res[0].Committed, res[0].Counters)
				continue
			}
			c, err := replayCells(tr, tc, []server.Cell{cell}, int32(i+1), r)
			traced += time.Since(t0)
			if err != nil {
				return nil, err
			}
			got.merge(c)
		}
	}
	if got != want {
		r.fail("traced counts %+v != untraced %+v", got, want)
	}
	got.into(r, true)
	gapMetrics(r, tr, untraced, traced)
	cacheMetrics(r, uc)
	if err := probeService(e, r, tr, cells[:6], true); err != nil {
		return nil, err
	}
	if err := probeSampling(r, tr, sampledPrograms()[:2]); err != nil {
		return nil, err
	}
	layerMetrics(r, tr)
	return r, tr.writeChrome(filepath.Join(e.state, "traces", fmt.Sprintf("sweep-cold-seed%d.json", e.seed)))
}

// replayCells simulates cells as RunCell would on a miss, one span per
// layer call: key derivation, cache read, machine construction, the
// run, counter export, cache write and NDJSON encoding.
// Cell ids (trace tracks) start at first.
func replayCells(tr *tracer, c *simcache.Cache, cells []server.Cell, first int32, r *result) (simCounts, error) {
	var counts simCounts
	for i, cell := range cells {
		id := first + int32(i)
		cfg, progs, windowed, err := cellMachine(cell)
		if err != nil {
			return counts, err
		}
		root := tr.begin("cell", 0, id)
		var key string
		tr.wrap("simcache.key", root, id, func() { key, _, err = server.CellKey(cell) })
		if err != nil {
			return counts, err
		}
		tr.wrap("simcache.get", root, id, func() { _, _ = c.Get(key) })
		var m *core.Machine
		tr.wrap("core.build", root, id, func() { m, err = core.New(cfg, progs, windowed) })
		if err != nil {
			return counts, err
		}
		run := tr.begin("core.run", root, id)
		res, err := m.Run()
		tr.end(run)
		if err != nil {
			return counts, err
		}
		tr.addWork(run, committed(res))
		var cm map[string]uint64
		tr.wrap("core.counters", root, id, func() { cm = res.Metrics.CounterMap() })
		tr.wrap("simcache.put", root, id, func() { err = c.Put(key, cfg, progs, res, cm) })
		if err != nil {
			return counts, err
		}
		out := server.CellResult{Cell: cell, Valid: true, Cycles: res.Cycles, Committed: committed(res), IPC: res.IPC(), CacheKey: key, Counters: cm}
		for _, t := range res.Threads {
			out.Outputs = append(out.Outputs, t.Output)
		}
		tr.wrap("server.encode", root, id, func() { _, err = json.Marshal(&out) })
		if err != nil {
			return counts, err
		}
		tr.end(root)
		r.attempted++
		counts.add(out.Cycles, out.Committed, cm)
	}
	return counts, nil
}
