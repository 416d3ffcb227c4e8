package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	vca "vca"
	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/experiments"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/server"
)

// sampled-ff: SimPoint-style sampling. emu.Machine.FastRun walks each
// program to completion; every sampleInterval instructions it takes a
// checkpoint and its content address, and runs a short detailed sample
// from it (core.New → InjectCheckpoint → Run). A pass covers all
// fifteen benchmarks under both ABIs; the seed orders each pass.
const (
	sampleInterval = 100_000
	sampleLen      = 2_000
)

type progSpec struct {
	name     string
	windowed bool
	prog     *program.Program
	cfg      core.Config
}

func (p progSpec) id() string { return fmt.Sprintf("%s|windowed=%v", p.name, p.windowed) }

// sampledPrograms builds the sampled set: flat binaries sample on the
// baseline machine, windowed binaries on the VCA windowed machine.
func sampledPrograms() []progSpec {
	var out []progSpec
	for _, name := range callFrequent() {
		for _, arch := range []experiments.Arch{experiments.ArchBaseline, experiments.ArchVCAWindow} {
			p, err := buildProgram(name, arch.ABI())
			if err != nil {
				panic(err) // the suite's own benchmarks: a build failure is a bug
			}
			cfg, _ := arch.Config(1, 256, 2)
			cfg.StopAfter = sampleLen
			cfg.StopExact = true
			cfg.MaxCycles = 1 << 34
			out = append(out, progSpec{name: name, windowed: arch.ABI() == minic.ABIWindowed, prog: p, cfg: cfg})
		}
	}
	return out
}

// passOut is one program's walk.
type passOut struct {
	ff, detailed uint64
	samples      int
	first        time.Duration // from the walk's start to its first sample result
	output       string
	digests      []string // per sample: (cycles, committed, counters)
	counts       simCounts
}

// walkProgram fast-forwards p to completion, sampling at every interval.
// With a tracer it records one span per layer call under root.
func walkProgram(tr *tracer, p progSpec, root, cell int32) (passOut, error) {
	var out passOut
	start := time.Now()
	m := emu.New(p.prog, emu.Config{Windowed: p.windowed})
	for {
		id := tr.begin("emu.fastrun", root, cell)
		n, err := m.FastRun(sampleInterval)
		tr.end(id)
		tr.addWork(id, n)
		out.ff += n
		if err != nil {
			return out, fmt.Errorf("%s: fast-forward: %w", p.id(), err)
		}
		if exited, _ := m.Exited(); exited || n < sampleInterval {
			break
		}
		var ck *emu.Checkpoint
		tr.wrap("emu.checkpoint", root, cell, func() {
			ck = m.Checkpoint()
			_, err = ck.ContentAddress()
		})
		if err != nil {
			return out, err
		}
		var cm *core.Machine
		tr.wrap("core.build", root, cell, func() { cm, err = core.New(p.cfg, []*program.Program{p.prog}, p.windowed) })
		if err != nil {
			return out, err
		}
		tr.wrap("core.inject", root, cell, func() { err = cm.InjectCheckpoint(0, ck) })
		if err != nil {
			return out, fmt.Errorf("%s: inject at %d: %w", p.id(), out.ff, err)
		}
		run := tr.begin("core.run", root, cell)
		res, err := cm.Run()
		tr.end(run)
		if err != nil {
			return out, fmt.Errorf("%s: sample at %d: %w", p.id(), out.ff, err)
		}
		c := committed(res)
		tr.addWork(run, c)
		if out.samples == 0 {
			out.first = time.Since(start)
		}
		out.samples++
		out.detailed += c
		counters := res.Metrics.CounterMap()
		out.counts.add(res.Cycles, c, counters)
		b, err := json.Marshal(struct {
			Cycles, Committed uint64
			Counters          map[string]uint64
		}{res.Cycles, c, counters})
		if err != nil {
			return out, err
		}
		sum := sha256.Sum256(b)
		out.digests = append(out.digests, hex.EncodeToString(sum[:12]))
	}
	out.output = m.Output.String()
	return out, nil
}

// emuRef is a program's reference behaviour from vca.Emulate.
type emuRef struct {
	output string
	insts  uint64
}

func emulateAll(progs []progSpec) (map[string]emuRef, error) {
	ref := map[string]emuRef{}
	for _, p := range progs {
		out, n, err := vca.Emulate(p.prog, p.windowed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.id(), err)
		}
		ref[p.id()] = emuRef{out, n}
	}
	return ref, nil
}

// checkWalk compares a walk with the functional reference and with the
// digests every earlier walk of the program recorded.
func checkWalk(r *result, book *digestBook, p progSpec, w passOut, ref emuRef) {
	r.attempted += int64(w.samples) + 1
	if w.output != ref.output || w.ff != ref.insts {
		r.fail("%s: fast-forward gave %d insts / %q..., vca.Emulate %d / %q...", p.id(), w.ff, trunc(w.output), ref.insts, trunc(ref.output))
	}
	for i, d := range w.digests {
		if !book.check(fmt.Sprintf("%s|%d", p.id(), i), d) {
			r.fail("%s: sample %d digest differs from an earlier walk", p.id(), i)
		}
	}
}

func trunc(s string) string {
	if len(s) > 24 {
		return s[:24]
	}
	return s
}

func runSampled(e *env) (*result, error) {
	r := newResult()
	progs := sampledPrograms()
	// Set-up warms the engines on a fixed fifth of the programs.
	warm := func() error {
		for _, p := range progs[:len(progs)/5] {
			if _, err := walkProgram(nil, p, 0, 0); err != nil {
				return err
			}
		}
		return nil
	}
	settle()
	setup, err := medianSetup(warm)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "s", setupRuns)
	ref, err := emulateAll(progs)
	if err != nil {
		return nil, err
	}
	book := openDigests(e, "sampled-ff")
	settle()

	var walkMS, firstMS, passMinst, passCells []float64
	var counts simCounts
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < e.seconds; pass++ {
		var passTime time.Duration
		var insts, samples uint64
		for _, pi := range shuffled(e.seed, uint64(pass), len(progs)) {
			p := progs[pi]
			t0 := time.Now()
			w, err := walkProgram(nil, p, 0, 0)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			checkWalk(r, book, p, w, ref[p.id()])
			passTime += d
			insts += w.ff + w.detailed
			samples += uint64(w.samples)
			walkMS = append(walkMS, ms(d))
			if w.samples > 0 {
				firstMS = append(firstMS, ms(w.first))
			}
			if pass == 0 {
				counts.merge(w.counts)
			}
		}
		passMinst = append(passMinst, float64(insts)/passTime.Seconds()/1e6)
		passCells = append(passCells, float64(samples)/passTime.Seconds())
	}
	fmt.Printf("# per-pass Minst/s %.3f\n", passMinst)
	if err := book.save(); err != nil {
		return nil, err
	}
	counts.into(r, false)
	r.set("minst_per_s", median(passMinst), "Minst/s", len(passMinst))
	r.set("cells_per_s", median(passCells), "1/s", len(passCells))
	r.set("sweep_ms_p50", median(walkMS), "ms", len(walkMS))
	r.set("sweep_ms_p90", quantile(walkMS, 0.9), "ms", beyond(walkMS, 0.9))
	r.set("first_ms_p50", median(firstMS), "ms", len(firstMS))
	return r, nil
}

// traceSampled walks every program twice in a row, untraced and traced
// (alternating which goes first); the two walks must agree on every
// sample.
func traceSampled(e *env) (*result, error) {
	r := newResult()
	progs := sampledPrograms()
	ref, err := emulateAll(progs)
	if err != nil {
		return nil, err
	}
	book := openDigests(e, "sampled-ff")
	for _, p := range progs[:len(progs)/5] { // the workload's own warm-up
		if _, err := walkProgram(nil, p, 0, 0); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	var want, got simCounts
	var untraced, traced time.Duration
	for i, p := range progs {
		cell := int32(i + 1)
		for _, side := range order(i) {
			t0 := time.Now()
			root := int32(0)
			if side == 1 {
				root = tr.begin("program", 0, cell)
			}
			w, err := walkProgram([2]*tracer{nil, tr}[side], p, root, cell)
			tr.end(root)
			if side == 0 {
				untraced += time.Since(t0)
				want.merge(w.counts)
			} else {
				traced += time.Since(t0)
				got.merge(w.counts)
			}
			if err != nil {
				return nil, err
			}
			checkWalk(r, book, p, w, ref[p.id()])
		}
	}
	if got != want {
		r.fail("traced counts %+v != untraced %+v", got, want)
	}
	got.into(r, true)
	gapMetrics(r, tr, untraced, traced)
	if err := book.save(); err != nil {
		return nil, err
	}
	var cells []server.Cell
	for _, b := range callFrequent()[:3] {
		cells = append(cells, sweepRow(b, 20_000)...)
	}
	if err := probeCache(e, r, tr, cells); err != nil {
		return nil, err
	}
	if err := probeService(e, r, tr, cells[:6], true); err != nil {
		return nil, err
	}
	layerMetrics(r, tr)
	return r, tr.writeChrome(filepath.Join(e.state, "traces", fmt.Sprintf("sampled-ff-seed%d.json", e.seed)))
}
