package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vca/internal/core"
	"vca/internal/metrics"
	"vca/internal/server"
	"vca/internal/server/shard"
	"vca/internal/simcache"
)

// The serving workloads' traffic. The aged cache holds every cell of
// benches × agedArchs × agedRegs × agedStops (3,000 entries); the first
// hotStops stop values form the 240-cell hot set. Sweeps come in blocks
// of blockSweeps: the same multiset of sweeps in every block and for
// every seed — 48 four-cell hot sweeps and 12 single fresh cells that
// simulate briefly and are then stored, so writes land beside reads.
// Fresh cells hold every missEvery-th slot of a block, so they arrive at
// a fixed cadence and never queue behind one another; the seed shuffles
// the hot sweeps among the hot slots and the fresh cells among the fresh
// slots, so every seed puts the same work on the service at the same
// times.
var (
	agedArchs = []string{"baseline", "vca-windowed"}
	agedRegs  = []int{192, 256}
	tenants   = []string{"alpha", "beta", "gamma"}
	prios     = []string{"interactive", "normal", "normal", "batch"}
)

const (
	agedStops    = 50
	hotStops     = 4
	blockSweeps  = 60
	missEvery    = 5 // every missEvery-th slot of a block is a fresh cell
	agedVersion  = 1 // bump when the aged cell set changes
	openRate     = 25.0
	agedStopBase = 3000
	missStopBase = 4000
)

func agedStop(k int) uint64 { return uint64(agedStopBase + 7*k) }

// gen derives sweep i from (seed, i) alone.
type gen struct {
	seed    int64
	benches []string
}

func newGen(seed int64) gen { return gen{seed: seed, benches: callFrequent()} }

func (g gen) sweep(i int) server.SweepRequest {
	const fresh = blockSweeps / missEvery
	block, pos := i/blockSweeps, i%blockSweeps
	// j is the sweep's position in the unshuffled block, where every
	// missEvery-th position is a fresh cell.
	var j int
	if pos%missEvery == missEvery-1 {
		j = shuffled(g.seed, uint64(2*block+1), fresh)[pos/missEvery]*missEvery + missEvery - 1
	} else {
		h := shuffled(g.seed, uint64(2*block), blockSweeps-fresh)[pos-pos/missEvery]
		j = h + h/(missEvery-1)
	}
	req := server.SweepRequest{
		Tenant:   tenants[j%len(tenants)],
		Priority: prios[(j/len(tenants))%len(prios)],
		DL1Ports: []int{2},
	}
	n := len(g.benches)
	if j%missEvery == missEvery-1 {
		// A fresh cell: miss m of the run, the same for every seed. Its
		// (stop, regs) pair is unique per m, so no two misses of a run
		// share a cell and none is aged.
		m := block*fresh + j/missEvery
		req.Benchmarks = []string{g.benches[m%n]}
		req.Archs = []string{agedArchs[(m/n)%len(agedArchs)]}
		req.PhysRegs = []int{160 + (m/997)%96}
		req.StopAfter = uint64(missStopBase + m%997)
		return req
	}
	b0 := j % n
	b1 := (b0 + 1 + (j/n)%(n-1)) % n
	req.Benchmarks = []string{g.benches[b0], g.benches[b1]}
	req.Archs = []string{agedArchs[j%len(agedArchs)]}
	req.PhysRegs = agedRegs
	req.StopAfter = agedStop((j / len(agedArchs)) % hotStops)
	return req
}

// agedDir returns the per-checkout aged cache, building it on first use.
// Every run copies it, so each starts from byte-identical state.
func agedDir(e *env) (string, error) {
	dir := filepath.Join(e.state, fmt.Sprintf("aged-v%d-schema%d", agedVersion, core.SchemaVersion))
	if want, err := os.ReadFile(filepath.Join(dir, "COMPLETE")); err == nil {
		got, err := manifest(dir)
		if err != nil {
			return "", err
		}
		if got == string(want) {
			return dir, nil
		}
		fmt.Printf("# aged cache changed since it was built; rebuilding\n")
	}
	os.RemoveAll(dir)
	tmp := dir + ".building"
	os.RemoveAll(tmp)
	c, err := simcache.Open(tmp)
	if err != nil {
		return "", err
	}
	var cells []server.Cell
	for k := 0; k < agedStops; k++ {
		req := server.SweepRequest{Benchmarks: callFrequent(), Archs: agedArchs, PhysRegs: agedRegs, DL1Ports: []int{2}, StopAfter: agedStop(k)}
		cs, err := server.ExpandCells(&req, 0)
		if err != nil {
			return "", err
		}
		cells = append(cells, cs...)
	}
	fmt.Printf("# aging a result cache to %d entries (once per checkout)\n", len(cells))
	res, err := server.RunCells(c, e.nproc, cells)
	if err != nil {
		return "", err
	}
	for _, cr := range res {
		if cr.Error != "" || !cr.Valid {
			return "", fmt.Errorf("aging cell %s: %s", cellID(cr.Cell), cr.Error)
		}
	}
	sum, err := manifest(tmp)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "COMPLETE"), []byte(sum), 0o644); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// linkDir gives dst the same files as src by hard links. The cache never
// writes a file in place — Put and the index rewrite create a temporary
// file and rename it — so the links keep the aged master byte-identical
// while the run's cache grows its own files.
func linkDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range entries {
		if de.IsDir() || de.Name() == "COMPLETE" {
			continue
		}
		if err := os.Link(filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

// manifest hashes the names, sizes and modification times of dir's
// files, so a run can tell whether the aged master changed since it was
// built.
func manifest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, de := range entries {
		if de.Name() == "COMPLETE" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d %d\n", de.Name(), info.Size(), info.ModTime().UnixNano())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stack is the serving side of a run, all in this process on loopback:
// one daemon (Workers = nproc), or a shard router in front of two
// daemons (Workers = 1 each), each daemon over its own cache copy.
type stack struct {
	servers []*server.Server
	caches  []*simcache.Cache
	https   []*http.Server
	urls    []string // daemon base URLs
	router  *shard.Router
	ring    *shard.Ring
	base    string // what clients talk to
	tr      *http.Transport
	client  *http.Client
	wg      sync.WaitGroup
	once    sync.Once
	err     error
}

// startStack links src (the aged cache; "" for empty caches) into a new
// directory per daemon and starts the stack.
func startStack(e *env, routed bool, src string) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	daemons, workers := 1, e.nproc
	if routed {
		daemons, workers = 2, 1
	}
	for i := 0; i < daemons; i++ {
		dir, err := os.MkdirTemp(e.work, "cache-")
		if err != nil {
			return nil, err
		}
		if src != "" {
			if err := linkDir(src, dir); err != nil {
				return nil, err
			}
		}
		c, err := simcache.Open(dir)
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Options{Cache: c, Workers: workers})
		url, err := s.serve(srv.Handler())
		if err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.caches = append(s.caches, c)
		s.urls = append(s.urls, url)
	}
	s.base = s.urls[0]
	if routed {
		r, err := shard.New(shard.Options{Workers: s.urls})
		if err != nil {
			return nil, err
		}
		s.router = r
		s.ring = shard.NewRing(s.urls, 0)
		if s.base, err = s.serve(r.Handler()); err != nil {
			return nil, err
		}
	}
	// At most nproc client connections, as a load generator on this
	// host could sustain without starving the service it measures.
	s.tr = &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc}
	s.client = &http.Client{Transport: s.tr}
	return s, nil
}

func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close drains the router and daemons and waits for every goroutine the
// stack started. Later calls return the first call's error.
func (s *stack) close() error {
	s.once.Do(func() { s.err = s.shutdown() })
	return s.err
}

func (s *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.router != nil {
		errs = append(errs, s.router.Drain(ctx))
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Drain(ctx))
	}
	for _, hs := range s.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	s.wg.Wait()
	return errors.Join(errs...)
}

// line is one received NDJSON result, kept as a hash for the check.
type line struct {
	index     int
	committed uint64
	at        time.Time
	size      int
	sum       [32]byte
}

// sweepRec is one sweep as the client saw it.
type sweepRec struct {
	seq                 int
	req                 server.SweepRequest
	due, sent, admitted time.Time
	first, last         time.Time
	status              int
	lines               []line
	err                 error
}

// doSweep posts one sweep and reads its result stream to the end.
func (s *stack) doSweep(base string, seq int, req server.SweepRequest, due time.Time) sweepRec {
	rec := sweepRec{seq: seq, req: req, due: due, sent: time.Now()}
	body, err := json.Marshal(&req)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := s.client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	rec.status = resp.StatusCode
	var acc struct {
		ResultsURL string `json:"results_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	rec.admitted = time.Now()
	if rec.status != http.StatusAccepted || err != nil {
		rec.err = fmt.Errorf("submit: status %d: %v", rec.status, err)
		return rec
	}
	resp, err = s.client.Get(base + acc.ResultsURL)
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		b, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			rest, err2 := br.ReadBytes('\n')
			b, err = append(b, rest...), err2
		}
		if len(b) > 0 {
			now := time.Now()
			if rec.first.IsZero() {
				rec.first = now
			}
			rec.last = now
			rec.lines = append(rec.lines, line{index: jsonInt(b, `"index":`), committed: uint64(jsonInt(b, `"committed":`)), at: now, size: len(b), sum: sha256.Sum256(b)})
		}
		if err == io.EOF {
			return rec
		}
		if err != nil {
			rec.err = err
			return rec
		}
	}
}

// jsonInt reads the integer after the first occurrence of field, or 0.
func jsonInt(b []byte, field string) int {
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		return 0
	}
	b = b[i+len(field):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(b[:j]))
	return n
}

// openLoopReqs sends sweeps first..first+n-1 on a fixed schedule, each
// due 1/rate after the previous, whatever the service's progress.
func (s *stack) openLoopReqs(reqAt func(i int) server.SweepRequest, first, n int, rate float64) []sweepRec {
	recs := make([]sweepRec, n)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			recs[i] = s.doSweep(s.base, first+i, reqAt(first+i), due)
		}(i, due)
	}
	wg.Wait()
	return recs
}

// closedLoop runs nproc clients, each sending its next sweep (from index
// first on) when the previous one has streamed its last line, until d has
// passed. It returns the records, the last index used, and the window.
func (s *stack) closedLoop(g gen, first, clients int, d time.Duration) ([]sweepRec, int, time.Time, time.Time) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var recs []sweepRec
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				now := time.Now()
				rec := s.doSweep(s.base, i, g.sweep(i), now)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, int(next.Load()) - 1, start, deadline
}

// checkSweeps computes the reference answer for every distinct served
// cell once per invocation, by simulating it directly (server.RunCell
// with no cache), and checks each received line against it byte for
// byte. It returns the references by cell id.
func checkSweeps(e *env, r *result, recs []sweepRec) (map[string]server.CellResult, error) {
	var mu sync.Mutex
	ref := map[string]server.CellResult{}
	var todo []server.Cell
	seen := map[string]bool{}
	expanded := make([][]server.Cell, len(recs))
	for i, rec := range recs {
		cells, err := server.ExpandCells(&rec.req, 0)
		if err != nil {
			return nil, err
		}
		expanded[i] = cells
		for _, c := range cells {
			if id := cellID(c); !seen[id] {
				seen[id] = true
				todo = append(todo, c)
			}
		}
	}
	run := simcache.Runner{Jobs: e.nproc}
	if err := run.Run(len(todo), func(i int) error {
		cr := server.RunCell(nil, todo[i])
		mu.Lock()
		ref[cellID(todo[i])] = cr
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	for i, rec := range recs {
		cells := expanded[i]
		r.attempted += int64(len(cells))
		if rec.err != nil {
			for range cells {
				r.fail("sweep %d: %v", rec.seq, rec.err)
			}
			continue
		}
		if len(rec.lines) != len(cells) {
			r.fail("sweep %d: %d lines for %d cells", rec.seq, len(rec.lines), len(cells))
		}
		for _, l := range rec.lines {
			if l.index < 0 || l.index >= len(cells) {
				r.fail("sweep %d: line for cell %d", rec.seq, l.index)
				continue
			}
			want := ref[cellID(cells[l.index])]
			want.Index = l.index
			b, err := json.Marshal(&want)
			if err != nil {
				return nil, err
			}
			if sha256.Sum256(append(b, '\n')) != l.sum || want.Error != "" || !want.Valid {
				r.fail("sweep %d cell %s: served result differs from direct server.RunCell", rec.seq, cellID(cells[l.index]))
			}
		}
	}
	return ref, nil
}

// daemonSamples fetches one daemon's raw metric samples.
func (s *stack) daemonSamples(url string) (map[string]uint64, error) {
	resp, err := s.client.Get(url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var samples []metrics.Sample
	if err := json.NewDecoder(resp.Body).Decode(&samples); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, sm := range samples {
		out[sm.Name] = sm.Value
	}
	return out, nil
}

// checkInvariant asserts misses == simulations on every daemon.
func (s *stack) checkInvariant(r *result) error {
	for _, u := range s.urls {
		m, err := s.daemonSamples(u)
		if err != nil {
			return err
		}
		if m["simcache.misses"] != m["simcache.simulations"] {
			r.fail("daemon %s: misses %d != simulations %d", u, m["simcache.misses"], m["simcache.simulations"])
		}
	}
	return nil
}

// serveSetup links the aged cache, starts the stack and warms it with
// one pass over the hot set; it is what a restarted service pays
// before its first useful answer.
func serveSetup(e *env, routed bool, aged string) (*stack, error) {
	st, err := startStack(e, routed, aged)
	if err != nil {
		return nil, err
	}
	g := newGen(e.seed)
	for k := 0; k < hotStops; k++ {
		req := server.SweepRequest{Tenant: "warm", Benchmarks: g.benches, Archs: agedArchs, PhysRegs: agedRegs, DL1Ports: []int{2}, StopAfter: agedStop(k)}
		if rec := st.doSweep(st.base, -1, req, time.Now()); rec.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", rec.err)
		}
	}
	return st, nil
}

// startServing runs the set-up setupRuns times, keeps the last stack, and
// reports the median.
func startServing(e *env, routed bool, r *result) (*stack, error) {
	aged, err := agedDir(e)
	if err != nil {
		return nil, err
	}
	var st *stack
	settle()
	setup, err := medianSetup(func() error {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		st, err = serveSetup(e, routed, aged)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "s", setupRuns)
	settle()
	return st, nil
}

func runServeAged(e *env) (*result, error)   { return runServe(e, false) }
func runServeRouted(e *env) (*result, error) { return runServe(e, true) }

// runServe alternates an open loop at openRate sweeps/s, which gives the
// latency metrics, with a closed loop of nproc clients, which gives
// throughput: one block of open loop per segment, half the run in all,
// so both phases see the whole run and the heap the service grows as it
// keeps finished jobs.
func runServe(e *env, routed bool) (*result, error) {
	r := newResult()
	st, err := startServing(e, routed, r)
	if err != nil {
		return nil, err
	}
	defer st.close()
	g := newGen(e.seed)
	half := e.seconds / 2
	segments := max(1, int(openRate*half.Seconds())/blockSweeps)
	const perOpen = blockSweeps
	var open, closed []sweepRec
	var windows [][2]time.Time // closed-loop throughput windows, two per segment
	next := closedFirst
	for seg := 0; seg < segments; seg++ {
		// Each open-loop phase starts from the same state: the previous
		// closed loop's garbage collected and its cache writes flushed.
		runtime.GC()
		settle()
		open = append(open, st.openLoopReqs(g.sweep, seg*perOpen, perOpen, openRate)...)
		recs, last, start, end := st.closedLoop(g, next, e.nproc, (e.seconds-half)/time.Duration(segments))
		closed, next = append(closed, recs...), last+1
		mid := start.Add(end.Sub(start) / 2)
		windows = append(windows, [2]time.Time{start, mid}, [2]time.Time{mid, end})
	}

	var sweepMS, firstMS, lagMS, freshMS []float64
	for _, rec := range open {
		if rec.err != nil || len(rec.lines) == 0 {
			continue
		}
		d := ms(rec.last.Sub(rec.due))
		if len(rec.req.Benchmarks) == 1 {
			freshMS = append(freshMS, d)
		}
		sweepMS = append(sweepMS, d)
		firstMS = append(firstMS, ms(rec.first.Sub(rec.due)))
		lagMS = append(lagMS, ms(rec.sent.Sub(rec.due)))
	}
	r.set("sweep_ms_p50", median(sweepMS), "ms", len(sweepMS))
	r.set("sweep_ms_p90", quantile(sweepMS, 0.9), "ms", beyond(sweepMS, 0.9))
	r.set("first_ms_p50", median(firstMS), "ms", len(firstMS))
	fmt.Printf("# fresh-cell sweeps p50 %.3f ms over %d\n", median(freshMS), len(freshMS))
	fmt.Printf("# client lag p99 %.3f ms over %d open-loop sweeps\n", quantile(lagMS, 0.99), len(lagMS))

	// Throughput: the median over the closed-loop windows, so one
	// stalled window does not decide the run.
	cells := make([]float64, len(windows))
	insts := make([]float64, len(windows))
	for _, rec := range closed {
		for _, l := range rec.lines {
			for w, win := range windows {
				if !l.at.Before(win[0]) && l.at.Before(win[1]) {
					cells[w]++
					insts[w] += float64(l.committed)
				}
			}
		}
	}
	var cps, mps []float64
	for w, win := range windows {
		sec := win[1].Sub(win[0]).Seconds()
		cps = append(cps, cells[w]/sec)
		mps = append(mps, insts[w]/sec/1e6)
	}
	r.set("cells_per_s", median(cps), "1/s", len(windows))
	r.set("minst_per_s", median(mps), "Minst/s", len(windows))

	if err := st.checkInvariant(r); err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	ref, err := checkSweeps(e, r, append(open, closed...))
	if err != nil {
		return nil, err
	}
	counts := servedCounts(ref, open[:min(countSweeps, len(open))])
	counts.into(r, false)
	return r, nil
}

// countSweeps is how many leading sweeps of the generator the exact
// simulated counts cover, in the traced and untraced runs alike: one
// block, the same multiset for every seed.
const countSweeps = blockSweeps

// closedFirst is the first sweep index of the closed loop, far beyond any
// open-loop index, so the open loop's blocks are the same in every run
// however many sweeps the closed loop gets through.
const closedFirst = 1 << 16

// servedCounts sums the simulated statistics of the given sweeps' cells,
// taken from the reference answers the served lines were checked against.
func servedCounts(ref map[string]server.CellResult, recs []sweepRec) simCounts {
	var c simCounts
	for _, rec := range recs {
		cells, _ := server.ExpandCells(&rec.req, 0) // expanded once already by the check
		for _, cell := range cells {
			cr := ref[cellID(cell)]
			c.add(cr.Cycles, cr.Committed, cr.Counters)
		}
	}
	return c
}

func traceServeAged(e *env) (*result, error)   { return traceServe(e, false) }
func traceServeRouted(e *env) (*result, error) { return traceServe(e, true) }

// traceServe replays the first traceSweeps sweeps of the generator as
// an open loop twice, each time on a fresh stack over the aged cache:
// untraced, then with the client-side timestamps of each sweep kept as
// spans. Probes on the traced stack's cache then time key derivation,
// hit reads and writes at the aged entry count.
func traceServe(e *env, routed bool) (*result, error) {
	const traceSweeps = 3 * blockSweeps
	r := newResult()
	aged, err := agedDir(e)
	if err != nil {
		return nil, err
	}
	g := newGen(e.seed)
	replay := func() ([]sweepRec, *stack, error) {
		st, err := serveSetup(e, routed, aged)
		if err != nil {
			return nil, nil, err
		}
		recs := st.openLoopReqs(g.sweep, 0, traceSweeps, openRate)
		if err := st.checkInvariant(r); err != nil {
			st.close()
			return nil, nil, err
		}
		return recs, st, nil
	}
	untracedRecs, a, err := replay()
	if err != nil {
		return nil, err
	}
	if err := a.close(); err != nil {
		return nil, err
	}
	recs, st, err := replay()
	if err != nil {
		return nil, err
	}
	defer st.close()
	tr := newTracer()
	serviceCounts(r, tr, recs)
	var untraced, traced time.Duration
	for i := range recs {
		untraced += untracedRecs[i].last.Sub(untracedRecs[i].due)
		traced += recs[i].last.Sub(recs[i].due)
	}
	gapMetrics(r, tr, untraced, traced)

	ref, err := checkSweeps(e, r, append(untracedRecs, recs...))
	if err != nil {
		return nil, err
	}
	want := servedCounts(ref, untracedRecs[:countSweeps])
	got := servedCounts(ref, recs[:countSweeps])
	if got != want {
		r.fail("traced counts %+v != untraced %+v", got, want)
	}
	got.into(r, true)
	cacheMetrics(r, st.caches[0])

	// Hot reads and fresh writes at the aged entry count, on the
	// workload's own cache.
	var hot, fresh []server.Cell
	for i := 0; i < 40; i++ {
		if req := g.sweep(i); len(req.Benchmarks) == 2 {
			cs, _ := server.ExpandCells(&req, 0) // generator requests are valid
			hot = append(hot, cs...)
		}
	}
	for k := 0; k < 6; k++ {
		fresh = append(fresh, server.Cell{Arch: agedArchs[k%2], Benchmarks: g.benches[k], PhysRegs: 256, DL1Ports: 2, StopAfter: missStopBase + 997 + uint64(k)})
	}
	if routed {
		if err := probeShard(r, tr, st, hot[:8]); err != nil {
			return nil, err
		}
	}
	// Behind the router, hot cells live on their ring owner's cache only.
	if err := probeGets(tr, st.caches[0], ownedBy(st, 0, hot)); err != nil {
		return nil, err
	}
	if err := probeCacheInto(r, tr, st.caches[0], fresh); err != nil {
		return nil, err
	}
	if !routed {
		if err := probeService(e, r, tr, hot[:6], false); err != nil {
			return nil, err
		}
	}
	if err := probeSampling(r, tr, sampledPrograms()[:2]); err != nil {
		return nil, err
	}
	layerMetrics(r, tr)
	name := "serve-aged"
	if routed {
		name = "serve-routed"
	}
	return r, tr.writeChrome(filepath.Join(e.state, "traces", fmt.Sprintf("%s-seed%d.json", name, e.seed)))
}

// ownedBy filters cells to those stored on daemon i's cache.
func ownedBy(st *stack, i int, cells []server.Cell) []server.Cell {
	if st.ring == nil {
		return cells
	}
	var out []server.Cell
	for _, c := range cells {
		if key, _, err := server.CellKey(c); err == nil && st.ring.Owner(key) == st.urls[i] {
			out = append(out, c)
		}
	}
	return out
}
