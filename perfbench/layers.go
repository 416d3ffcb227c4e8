package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"vca/internal/server"
	"vca/internal/simcache"
)

// gapMetrics compares the replay's spans (all recorded so far) with the
// untraced run of the same work: trace.gap_frac is the share of the
// untraced time no layer span accounts for, trace.overhead_frac what
// tracing itself added.
func gapMetrics(r *result, tr *tracer, untraced, traced time.Duration) {
	self := tr.selfTimes()
	var layers time.Duration
	for i, s := range tr.spans {
		if s.parent != 0 {
			layers += self[i]
		}
	}
	r.set("trace.gap_frac", 1-layers.Seconds()/untraced.Seconds(), "ratio", len(tr.spans))
	r.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "ratio", 1)
	fmt.Printf("# replay: untraced %.3f s, traced %.3f s, layer self time %.3f s\n", untraced.Seconds(), traced.Seconds(), layers.Seconds())
}

// cacheMetrics reports a cache's traffic ratios and footprint.
func cacheMetrics(r *result, c *simcache.Cache) {
	st := c.Stats()
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("simcache.hit_ratio", ratio(st.Hits, st.Hits+st.Misses), "ratio", int(st.Hits+st.Misses))
	r.set("simcache.sf_share", ratio(st.SFHits, st.Misses), "ratio", int(st.Misses))
	n := c.Len()
	r.set("simcache.entries", float64(n), "count", 1)
	var bytes int64
	filepath.WalkDir(c.Dir(), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				bytes += info.Size()
			}
		}
		return nil // a file vanishing mid-walk only shrinks the figure
	})
	r.set("simcache.kb_per_entry", ratio(uint64(bytes), uint64(n))/1024, "KB", n)
}

// layerMetrics turns every span recorded in the run into the per-layer
// metrics: medians of self time per call, and ns per instruction where
// the span carries an instruction count.
func layerMetrics(r *result, tr *tracer) {
	self := tr.selfTimes()
	calls := map[string][]time.Duration{}
	work := map[string]uint64{}
	for i, s := range tr.spans {
		calls[s.name] = append(calls[s.name], self[i])
		work[s.name] += s.work
	}
	p50 := func(metric, span, unit string, scale time.Duration) {
		v, n := p50us(calls[span])
		r.set(metric, v*float64(time.Microsecond)/float64(scale), unit, n)
	}
	perInst := func(metric, span string) {
		v := 0.0
		if work[span] > 0 {
			v = float64(sum(calls[span])) / float64(work[span])
		}
		r.set(metric, v, "ns/inst", len(calls[span]))
	}
	p50("core.build_us_p50", "core.build", "us", time.Microsecond)
	perInst("core.run_ns_per_inst", "core.run")
	p50("core.inject_us_p50", "core.inject", "us", time.Microsecond)
	perInst("emu.fastrun_ns_per_inst", "emu.fastrun")
	p50("emu.checkpoint_us_p50", "emu.checkpoint", "us", time.Microsecond)
	p50("simcache.key_us_p50", "simcache.key", "us", time.Microsecond)
	p50("simcache.get_us_p50", "simcache.get", "us", time.Microsecond)
	p50("simcache.put_ms_p50", "simcache.put", "ms", time.Millisecond)
	p50("server.admit_ms_p50", "server.admit", "ms", time.Millisecond)
	p50("server.queue_ms_p50", "server.queue", "ms", time.Millisecond)
	p50("server.encode_us_p50", "server.encode", "us", time.Microsecond)
	p50("shard.route_us_p50", "shard.route", "us", time.Microsecond)
	via, nv := p50us(calls["shard.hop.router"])
	direct, nd := p50us(calls["shard.hop.direct"])
	r.set("shard.hop_ms_p50", (via-direct)/1000, "ms", min(nv, nd))

	// Which share of layer self time each layer took, for the reader.
	var total time.Duration
	shares := map[string]time.Duration{}
	for i, s := range tr.spans {
		if s.parent != 0 {
			total += self[i]
			shares[s.name] += self[i]
		}
	}
	for _, k := range sortedKeys(shares) {
		fmt.Printf("# layer %-18s self %9.3f ms  %5.1f%%  calls %d\n", k, ms(shares[k]), 100*float64(shares[k])/float64(total), len(calls[k]))
	}
}

// probeCache replays cells into a fresh cache (key, get, build, run,
// put, encode), then reads every stored entry back as a hit.
func probeCache(e *env, r *result, tr *tracer, cells []server.Cell) error {
	c, err := freshCache(e, "probe")
	if err != nil {
		return err
	}
	if err := probeCacheInto(r, tr, c, cells); err != nil {
		return err
	}
	cacheMetrics(r, c)
	return nil
}

func probeCacheInto(r *result, tr *tracer, c *simcache.Cache, cells []server.Cell) error {
	if _, err := replayCells(tr, c, cells, 1, r); err != nil {
		return err
	}
	return probeGets(tr, c, cells)
}

// probeGets reads cells that are stored in c, one span per Get.
func probeGets(tr *tracer, c *simcache.Cache, cells []server.Cell) error {
	root := tr.begin("probe.get", 0, 0)
	defer tr.end(root)
	for i, cell := range cells {
		var key string
		var err error
		tr.wrap("simcache.key", root, int32(i+1), func() { key, _, err = server.CellKey(cell) })
		if err != nil {
			return err
		}
		var ok bool
		tr.wrap("simcache.get", root, int32(i+1), func() { _, ok = c.Get(key) })
		if !ok {
			return fmt.Errorf("probe: stored cell %s missing", cellID(cell))
		}
	}
	return nil
}

// probeSampling walks programs with spans, so workloads that never
// sample still report the emu and injection layers.
func probeSampling(r *result, tr *tracer, progs []progSpec) error {
	for i, p := range progs {
		root := tr.begin("probe.sampling", 0, int32(i+1))
		_, err := walkProgram(tr, p, root, int32(i+1))
		tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// recordSweep turns one client-side sweep record into spans: admission
// (the POST round trip), queueing (202 to the first line) and the
// stream (first to last line), under a root from due time to last line.
func recordSweep(tr *tracer, rec sweepRec) {
	if rec.err != nil || rec.first.IsZero() {
		return
	}
	cell := int32(rec.seq + 1)
	root := tr.record("sweep", 0, cell, rec.due, rec.last)
	tr.record("client.wait", root, cell, rec.due, rec.sent)
	tr.record("server.admit", root, cell, rec.sent, rec.admitted)
	tr.record("server.queue", root, cell, rec.admitted, rec.first)
	tr.record("server.stream", root, cell, rec.first, rec.last)
}

// probeService measures the service and shard layers on a fresh routed
// stack over empty caches: the route derivation, the router hop against
// direct dispatch, and a short open loop for admission, queueing and
// client lag. Batch workloads use all of it; serve-aged, whose own open
// loop gives admission and lag, uses it for the shard layer only.
func probeService(e *env, r *result, tr *tracer, cells []server.Cell, openLoop bool) error {
	st, err := startStack(e, true, "")
	if err != nil {
		return err
	}
	defer st.close()
	if err := probeShard(r, tr, st, cells); err != nil {
		return err
	}
	if !openLoop {
		return st.close()
	}
	// Open loop over the probe cells as single-cell sweeps.
	reqs := make([]server.SweepRequest, len(cells))
	for i, c := range cells {
		reqs[i] = singleCell(c)
	}
	recs := st.openLoopReqs(func(i int) server.SweepRequest { return reqs[i%len(reqs)] }, 0, 100, openRate)
	serviceCounts(r, tr, recs)
	return st.close()
}

// serviceCounts publishes the open-loop records as spans and counts.
func serviceCounts(r *result, tr *tracer, recs []sweepRec) {
	var lag []float64
	var lines, bytes, refused int
	for _, rec := range recs {
		recordSweep(tr, rec)
		lag = append(lag, ms(rec.sent.Sub(rec.due)))
		if rec.status == 429 {
			refused++
		}
		for _, l := range rec.lines {
			lines++
			bytes += l.size
		}
	}
	r.set("client.lag_ms_p99", quantile(lag, 0.99), "ms", beyond(lag, 0.99))
	r.set("server.refused", float64(refused), "count", len(recs))
	r.set("server.line_bytes", float64(bytes)/float64(max(lines, 1)), "B", lines)
}

func singleCell(c server.Cell) server.SweepRequest {
	return server.SweepRequest{Tenant: "probe", Benchmarks: []string{c.Benchmarks}, Archs: []string{c.Arch}, PhysRegs: []int{c.PhysRegs}, DL1Ports: []int{c.DL1Ports}, StopAfter: c.StopAfter}
}

// probeShard times routing-key derivation plus the ring lookup, and the
// router hop: the same hot single-cell sweep sent via the router and
// directly to its owner, alternating which goes first.
func probeShard(r *result, tr *tracer, st *stack, cells []server.Cell) error {
	root := tr.begin("probe.shard", 0, 0)
	owners := make([]string, len(cells))
	for i, c := range cells {
		var err error
		tr.wrap("shard.route", root, int32(i+1), func() {
			var key string
			key, _, err = server.CellKey(c)
			owners[i] = st.ring.Owner(key)
		})
		if err != nil {
			return err
		}
		// Warm: the first answer may simulate; the hop compares hits.
		if rec := st.doSweep(st.base, i, singleCell(c), time.Now()); rec.err != nil {
			return rec.err
		}
	}
	for i := 0; i < 40; i++ {
		c := cells[i%len(cells)]
		ways := []struct{ name, base string }{{"shard.hop.router", st.base}, {"shard.hop.direct", owners[i%len(cells)]}}
		if i%2 == 1 {
			ways[0], ways[1] = ways[1], ways[0]
		}
		for _, w := range ways {
			var rec sweepRec
			tr.wrap(w.name, root, int32(i+1), func() { rec = st.doSweep(w.base, i, singleCell(c), time.Now()) })
			if rec.err != nil {
				return rec.err
			}
		}
	}
	tr.end(root)

	m := map[string]uint64{}
	for _, s := range st.router.MetricSamples() {
		if strings.HasPrefix(s.Name, "server.shard.") {
			m[s.Name] = s.Value
		}
	}
	r.set("shard.retries", float64(m["server.shard.retries"]), "count", 1)
	r.set("shard.failovers", float64(m["server.shard.failovers"]), "count", 1)
	var routed []float64
	var total float64
	for i := range st.urls {
		v := float64(m[fmt.Sprintf("server.shard.routed.w%d", i)])
		routed = append(routed, v)
		total += v
	}
	hi := 0.0
	for _, v := range routed {
		hi = max(hi, v)
	}
	// The busiest worker's share against an even split (1 = balanced).
	r.set("shard.balance", hi*float64(len(routed))/max(total, 1), "ratio", int(total))
	return nil
}
