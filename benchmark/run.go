package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

// serverShards is the daemon's -shards value for every workload.
const serverShards = 2

// Shares of --seconds each timed phase gets. The recoveries take what they
// take (about the remaining fifth on the recording host).
const (
	saturateShare = 0.4
	pacedShare    = 0.4
)

// sustainedShare is the share of the paced rate that must be acknowledged
// within the phase for its latencies to count. It leaves room for one host
// stall of a few hundred milliseconds, which these hosts do produce.
const sustainedShare = 0.95

// setupReps is how many times a timed run sets the server up from nothing;
// setup_s is the median, because one set-up is too short to repeat well.
const setupReps = 3

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// runConfig is one invocation's input.
type runConfig struct {
	W        Workload
	Seed     uint64
	Seconds  float64
	Trace    bool
	Verify   bool   // also replay through bare engine executors (slow)
	BenchDir string // the benchmark's source directory
	WorkDir  string // scratch: binaries and data directories
	TraceOut string // span file written by a traced run
	// Reps overrides setupReps and recoverReps (the smoke test does each
	// once).
	Reps int
}

// runResult is one invocation's output.
type runResult struct {
	Attempted, Failed int64
	// Mismatches counts the failed operations that were wrong answers: they
	// make the run incorrect, not merely degraded.
	Mismatches int64
	Notes      []string // warnings, and why operations failed
	E2E        []metric
	Layer      []metric
	Phases     []metric // wall time per phase, for the header
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *runResult) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.note("%d failed: "+format, append([]any{n}, args...)...)
}

func (r *runResult) mismatch(n int64, format string, args ...any) {
	if n > 0 {
		r.Mismatches += n
		r.fail(n, format, args...)
	}
}

func (r *runResult) e2e(name string, v float64, unit string) {
	r.E2E = append(r.E2E, metric{name, v, unit})
}
func (r *runResult) layer(name string, v float64, unit string) {
	r.Layer = append(r.Layer, metric{name, v, unit})
}
func (r *runResult) phase(name string, since time.Time) {
	r.Phases = append(r.Phases, metric{name, time.Since(since).Seconds(), "s"})
}

// serverProcs is the daemon's GOMAXPROCS: every core but the one the load
// generator (GOMAXPROCS 1) runs on, so runnable threads never exceed cores.
func serverProcs() int { return max(1, runtime.NumCPU()-1) }

func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stack is one set-up server with its driver.
type stack struct {
	cfg  serverConfig
	srv  *server
	drv  *driver
	gen  *Gen
	boot time.Duration
}

// setUp starts a daemon on an empty directory, waits for the registrations
// made by its -register flags, preloads P rows and checkpoints.
func setUp(rc runConfig, rep int) (*stack, time.Duration, error) {
	t0 := time.Now()
	dir := filepath.Join(rc.WorkDir, fmt.Sprintf("data-%d-%d", os.Getpid(), rep))
	os.RemoveAll(dir)
	addrPort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	pprofPort, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	gen := NewGen(rc.W, rc.Seed)
	gen.keep = rc.Verify
	st := &stack{gen: gen, cfg: serverConfig{
		Bin: filepath.Join(rc.WorkDir, "rpaiserver"), Dir: dir,
		Addr: fmt.Sprintf("127.0.0.1:%d", addrPort), Pprof: fmt.Sprintf("127.0.0.1:%d", pprofPort),
		Shards: serverShards, GoMaxProcs: serverProcs(), Queries: rc.W.Queries,
	}}
	if st.srv, err = st.cfg.start(); err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*stack, time.Duration, error) {
		st.discard()
		return nil, 0, err
	}
	if err := st.srv.waitReady(30 * time.Second); err != nil {
		return fail(err)
	}
	st.boot = time.Since(st.srv.started)
	if st.drv, err = dialDriver(st.cfg.Addr, rc.W, st.gen); err != nil {
		return fail(err)
	}
	qs, err := st.drv.ctl.ListQueries()
	if err != nil {
		return fail(err)
	}
	if len(qs) != len(rc.W.Queries) || qs[0].ID != query0 {
		return fail(fmt.Errorf("server registered %d queries, want %d starting at id %d", len(qs), len(rc.W.Queries), query0))
	}
	if err := st.drv.preload(); err != nil {
		return fail(err)
	}
	if err := st.drv.ctl.Checkpoint(); err != nil {
		return fail(err)
	}
	return st, time.Since(t0), nil
}

// discard throws a stack away: no clean shutdown is owed to a directory
// about to be deleted.
func (st *stack) discard() {
	if st.drv != nil {
		st.drv.close()
	}
	if st.srv != nil {
		st.srv.kill()
	}
	os.RemoveAll(st.cfg.Dir)
	os.Remove(st.cfg.Dir + ".log")
}

// check compares the server's answers with the oracle's and counts each
// differing query as a failed operation.
func (st *stack) check(res *runResult, when string, want Answers) (Answers, error) {
	got, err := st.drv.answers()
	if err != nil {
		return got, err
	}
	res.Attempted += int64(len(want.Scalar))
	bad, first := want.diff(got)
	res.mismatch(int64(bad), "results %s differ from the oracle: %s", when, first)
	return got, nil
}

// pass is the state of one run as it moves through its phases.
type pass struct {
	rc  runConfig
	res *runResult
	tr  *tracer
	cal *calibrator
	st  *stack
	rd  *readers
	// kernels are every calibration reading of the run, in milliseconds.
	kernels []float64
	// heaps are the server's forced-GC heap sizes in MiB, read whenever it
	// was drained and holding the workload's P rows.
	heaps []float64
	// last are the answers read at the end of the paced phase: what the
	// recovered server must serve again.
	last Answers
}

// phaseLen is a timed phase's length: its share of --seconds, halved in a
// traced run, which has the layer ladder to fit into the same wall time and
// reports no end-to-end metric.
func (p *pass) phaseLen(share float64) time.Duration {
	d := time.Duration(p.rc.Seconds * share * float64(time.Second))
	if p.rc.Trace {
		d /= 2
	}
	return d
}

// heap reads the server's heap after a forced collection.
func (p *pass) heap() (float64, error) {
	ms, err := p.st.srv.memStats()
	mb := float64(ms.HeapAlloc) / (1 << 20)
	if err == nil {
		p.heaps = append(p.heaps, mb)
	}
	return mb, err
}

// kernel takes one calibration reading. The server must be drained; the
// short pause lets it finish pushing its last frames to subscribers, so that
// the kernel has the core to itself.
func (p *pass) kernel() (time.Duration, error) {
	time.Sleep(3 * time.Millisecond)
	k, err := p.cal.measure()
	p.kernels = append(p.kernels, k.Seconds()*1e3)
	return k, err
}

// runStack is one full pass over one workload.
func runStack(rc runConfig, out io.Writer) (*runResult, error) {
	p := &pass{rc: rc, res: &runResult{}}
	if rc.Trace {
		p.tr = newTracer()
	}
	if err := os.MkdirAll(rc.WorkDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := buildServer(rc.BenchDir, filepath.Join(rc.WorkDir, "rpaiserver")); err != nil {
		return nil, err
	}
	p.res.phase("build", t0)
	var err error
	if p.cal, err = startCalibrator(); err != nil {
		return nil, err
	}
	defer p.cal.stop()
	defer func() {
		if p.rd != nil {
			p.rd.detach()
		}
		if p.st != nil {
			p.st.discard()
		}
	}()
	for _, phase := range []struct {
		name string
		run  func() error
	}{
		{"setup", p.setup}, {"saturate", p.saturate}, {"quiesce", p.quiesce}, {"paced", p.paced}, {"recover", p.recover},
	} {
		t0 := time.Now()
		if err := phase.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", phase.name, err)
		}
		p.res.phase(phase.name, t0)
	}
	p.res.layer("host.kernel_ms", median(p.kernels), "ms")
	if pinFailed != nil {
		p.res.note("WARNING: the host refused CPU pinning (%v); the run was not pinned and its timings are noisier", pinFailed)
	}
	if rc.Verify {
		if err := verifyOracle(rc, p.res, p.st.gen); err != nil {
			return nil, err
		}
	}
	if rc.Trace {
		t0 := time.Now()
		if err := runLadder(rc, p.res, p.tr); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		p.res.phase("ladder", t0)
		if err := p.tr.write(rc.TraceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", rc.TraceOut)
		printSummary(out, p.tr.spans)
	}
	return p.res, nil
}

// atRef scales a duration-like quantity, measured while the calibration
// kernel took k, to what it would have been at the reference host speed.
func atRef(v float64, k time.Duration) float64 { return v * float64(kernelRef) / float64(k) }

// setup sets the server up from nothing, several times in a timed run (the
// build is not part of it). Each repetition is scaled by a kernel reading
// taken right after it.
func (p *pass) setup() error {
	reps := setupReps
	if p.rc.Reps > 0 {
		reps = p.rc.Reps
	}
	if p.rc.Trace {
		reps = 1 // setup_s is an end-to-end metric; traced runs do not report it
	}
	var setups, raws, boots []float64
	for rep := 0; rep < reps; rep++ {
		if p.st != nil {
			p.st.discard()
		}
		var took time.Duration
		var err error
		if p.st, took, err = setUp(p.rc, rep); err != nil {
			return err
		}
		k, err := p.kernel()
		if err != nil {
			return err
		}
		if _, err := p.heap(); err != nil {
			return err
		}
		setups = append(setups, atRef(took.Seconds(), k))
		raws = append(raws, took.Seconds())
		boots = append(boots, p.st.boot.Seconds())
	}
	p.res.e2e("setup_s", median(setups), "s")
	p.res.layer("host.raw_setup_s", median(raws), "s")
	p.res.layer("rpaiserver.boot_s", median(boots), "s")
	p.res.Attempted += p.st.drv.acks.seq
	return nil
}

// saturate is the closed loop: ingest rate and server CPU per event over its
// calibrated windows (see steady).
func (p *pass) saturate() error {
	drv, res := p.st.drv, p.res
	dur := p.phaseLen(saturateShare)
	var err error
	if p.rc.W.ReadersInSaturate {
		if p.rd, err = drv.attachReaders(p.st.cfg.Addr); err != nil {
			return err
		}
	}
	batches0 := drv.acks.seq
	var sat []satWindow
	if !p.rc.Trace {
		if sat, err = drv.saturate(dur, p.st.srv, p.rd, p.kernel); err != nil {
			return err
		}
	} else {
		// A traced run splits the phase: the first half runs as the timed
		// run does, the second records a span per batch. The difference in
		// rate between the halves is what tracing costs.
		plain, err := drv.saturate(dur/2, p.st.srv, p.rd, p.kernel)
		if err != nil {
			return err
		}
		span := p.tr.open("saturate", -1)
		drv.acks.mode(nil, p.tr, span)
		if sat, err = drv.saturate(dur/2, p.st.srv, p.rd, p.kernel); err != nil {
			return err
		}
		drv.acks.mode(nil, nil, -1)
		p.tr.close(span, int(sumWindows(sat).events))
		plainRate, tracedRate := steadyRate(plain), steadyRate(sat)
		res.layer("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%")
	}
	res.Attempted += drv.acks.seq - batches0
	tot := sumWindows(sat)
	res.e2e("ingest_events_per_s", steadyRate(sat), "1/s")
	res.e2e("server_cpu_us_per_event", steadyCPU(sat), "us")
	res.layer("rpaiserver.cpu_user_us_per_event", 1e6*tot.cpu.User/float64(tot.events), "us")
	res.layer("rpaiserver.cpu_sys_us_per_event", 1e6*tot.cpu.Sys/float64(tot.events), "us")
	res.layer("loadgen.cpu_us_per_event", 1e6*tot.self/float64(tot.events), "us")
	res.layer("host.raw_ingest_events_per_s", float64(tot.events)/tot.wall.Seconds(), "1/s")
	if busy := tot.self / tot.wall.Seconds(); busy > 0.9 {
		res.note("WARNING: the load generator used %.0f%% of its core during saturate; the run measures the generator", 100*busy)
	}
	return nil
}

// quiesce reads the forced-GC heap, checks every answer, and times a
// checkpoint.
func (p *pass) quiesce() error {
	mb, err := p.heap()
	if err != nil {
		return err
	}
	p.res.layer("rpaiserver.quiesce_heap_mb", mb, "mb")
	if _, err := p.st.check(p.res, "after saturate", p.st.gen.ExpectAll()); err != nil {
		return err
	}
	t0 := time.Now()
	if err := p.st.drv.ctl.Checkpoint(); err != nil {
		return err
	}
	p.res.layer("rpaiserver.checkpoint_s", time.Since(t0).Seconds(), "s")
	p.res.layer("rpaiserver.data_dir_mb", dirMB(p.st.cfg.Dir), "mb")
	return nil
}

// paced is the open loop at the workload's frozen rate, the only source of
// latencies. They are not scaled to the reference host speed: at these rates
// a latency is mostly wake-ups and hops between threads, which the
// calibration kernel does not measure; see latencies.quietP50 instead.
func (p *pass) paced() error {
	drv, res, gen := p.st.drv, p.res, p.st.gen
	dur := p.phaseLen(pacedShare).Truncate(markerEvery)
	var err error
	if p.rd == nil {
		if p.rd, err = drv.attachReaders(p.st.cfg.Addr); err != nil {
			return err
		}
	}
	rd := p.rd
	stats0, err := drv.ctl.Stats()
	if err != nil {
		return err
	}
	frames0 := rd.frames()
	clk, err := startTickClock(paceTick)
	if err != nil {
		return err
	}
	defer clk.stop()
	span := p.tr.open("paced", -1)
	marks := &markerLog{base: gen.markers}
	var ackLat latencies
	rd.measure(marks, p.tr, span)
	drv.acks.mode(&ackLat, p.tr, span)
	batches0 := drv.acks.seq
	cpu0, err := p.st.srv.cpu()
	if err != nil {
		return err
	}
	self0, t0 := selfCPU(), time.Now()
	pr, err := drv.paced(dur, clk, marks, rd)
	if err != nil {
		return err
	}
	if err := drv.drain(); err != nil {
		return err
	}
	took := time.Since(t0)
	cpu1, err := p.st.srv.cpu()
	if err != nil {
		return err
	}
	self1 := selfCPU()
	p.tr.close(span, int(pr.events))
	drv.acks.mode(nil, nil, -1)

	// The phase's answers: the oracle, a pull, and every subscriber's view
	// must agree once the server is drained.
	if p.last, err = p.st.check(res, "after paced", gen.ExpectAll()); err != nil {
		return err
	}
	res.Attempted += int64(len(rd.subs))
	res.mismatch(int64(rd.viewsMatch(p.last.Grouped[0], 5*time.Second)), "subscriber views differ from the pulled grouped result")
	rd.measure(nil, nil, -1)
	stats1, err := drv.ctl.Stats()
	if err != nil {
		return err
	}

	achieved := min(1, dur.Seconds()/took.Seconds())
	var fresh, read latencies
	var resets, reads, readFails int64
	for _, s := range rd.subs {
		s.mu.Lock()
		fresh.merge(&s.fresh)
		resets += int64(max(0, s.fulls-serverShards))
		if s.viewErr != nil {
			resets++
		}
		s.mu.Unlock()
	}
	for _, pl := range rd.pulls {
		pl.mu.Lock()
		read.merge(pl.lat)
		reads += pl.reads
		readFails += pl.failed + pl.dropped
		pl.mu.Unlock()
	}
	wantFresh := int64(pr.markers * len(rd.subs))
	res.Attempted += (drv.acks.seq - batches0) + wantFresh + reads
	res.fail(readFails, "pull reads returned an error or fell more than their whole queue behind")
	res.fail(resets, "subscription resets (Full frames after the seed, or view gaps)")
	res.fail(wantFresh-int64(fresh.n()), "markers never seen by a subscriber")
	if achieved < sustainedShare {
		res.fail(int64(ackLat.n()+fresh.n()+read.n()),
			"paced phase not sustained: %.1f%% of %d ev/s acknowledged, so its latencies do not count", 100*achieved, p.rc.W.Rate)
	}
	res.layer("ack_p50_ms", ackLat.quietP50(t0), "ms")
	res.layer("fresh_p50_ms", fresh.quietP50(t0), "ms")
	res.layer("read_p50_ms", read.quietP50(t0), "ms")
	res.layer("loadgen.ack_p50_phase_ms", ackLat.ms(0.5), "ms")
	res.layer("loadgen.fresh_p50_phase_ms", fresh.ms(0.5), "ms")
	res.layer("loadgen.read_p50_phase_ms", read.ms(0.5), "ms")
	res.layer("loadgen.late_p99_ms", pr.late.ms(0.99), "ms")
	res.layer("loadgen.paced_achieved_share", achieved, "ratio")
	res.layer("loadgen.paced_cpu_share", (self1-self0)/took.Seconds(), "ratio")
	res.layer("loadgen.ack_p99_ms", ackLat.ms(0.99), "ms")
	res.layer("loadgen.fresh_p99_ms", fresh.ms(0.99), "ms")
	res.layer("loadgen.read_p99_ms", read.ms(0.99), "ms")
	res.layer("loadgen.frames_per_s", float64(rd.frames()-frames0)/took.Seconds(), "1/s")
	res.layer("rpaiserver.paced_cpu_share", cpu1.sub(cpu0).total()/took.Seconds(), "ratio")
	res.note("paced samples: ack n=%d (highest supported percentile p%g), fresh n=%d (p%g), read n=%d (p%g)",
		ackLat.n(), 100*topPercentile(ackLat.n()), fresh.n(), 100*topPercentile(fresh.n()), read.n(), 100*topPercentile(read.n()))
	if late := pr.late.ms(0.99); late > 1 {
		res.note("WARNING: the open loop ran %.2f ms late at p99; latencies include the generator's own delay", late)
	}
	serveCounters(res, stats0, stats1, pr.events, float64(rd.frames()-frames0)/float64(max(1, len(rd.subs))))
	return nil
}

// recoverReps is how many times the crashed directory is recovered;
// recover_s is the median.
const recoverReps = 3

// recover is the crash: SIGKILL, then restart on the same directory with the
// same flags, timed from exec to the first reply that equals the pre-kill
// value of query 0. The WAL tail is exactly the paced phase's events. The
// crashed directory is copied aside and recovered recoverReps times, each
// time from that copy, because one recovery is too short to repeat well.
func (p *pass) recover() error {
	st, res := p.st, p.res
	rss, err := st.srv.peakRSSMB()
	if err != nil {
		return err
	}
	ms, err := st.srv.memStats()
	if err != nil {
		return err
	}
	res.layer("rpaiserver.peak_rss_mb", rss, "mb")
	res.layer("rpaiserver.gc_cycles", float64(ms.NumGC), "count")
	res.layer("rpaiserver.gc_pause_ms", float64(ms.PauseNs)/1e6, "ms")
	kPrev, err := p.kernel()
	if err != nil {
		return err
	}
	p.rd.detach()
	st.drv.close()
	st.drv = nil
	st.srv.kill()
	crashed := st.cfg.Dir + ".crashed"
	defer os.RemoveAll(crashed)
	if err := copyDir(crashed, st.cfg.Dir); err != nil {
		return err
	}
	var scaled, raw []float64
	reps := recoverReps
	if p.rc.Reps > 0 || p.rc.Trace {
		reps = 1 // recover_s is an end-to-end metric; traced runs do not report it
	}
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			st.srv.kill()
			if err := os.RemoveAll(st.cfg.Dir); err != nil {
				return err
			}
			if err := copyDir(st.cfg.Dir, crashed); err != nil {
				return err
			}
		}
		if st.srv, err = st.cfg.start(); err != nil {
			return err
		}
		if err := st.srv.waitReady(120 * time.Second); err != nil {
			return err
		}
		ctl, err := client.Dial(st.cfg.Addr, client.Options{Conns: 1})
		if err != nil {
			return err
		}
		first, err := ctl.ResultQuery(query0)
		took := time.Since(st.srv.started)
		ctl.Close()
		if err != nil {
			return err
		}
		res.Attempted++
		if first != p.last.Scalar[0] {
			res.mismatch(1, "first result after recovery %v, before the kill %v", first, p.last.Scalar[0])
		}
		k, err := p.kernel()
		if err != nil {
			return err
		}
		if _, err := p.heap(); err != nil {
			return err
		}
		scaled = append(scaled, atRef(took.Seconds(), (kPrev+k)/2))
		raw = append(raw, took.Seconds())
		kPrev = k
	}
	res.e2e("recover_s", median(scaled), "s")
	res.layer("host.raw_recover_s", median(raw), "s")
	if st.drv, err = dialDriver(st.cfg.Addr, p.rc.W, st.gen); err != nil {
		return err
	}
	if _, err = st.check(res, "after recovery", st.gen.ExpectAll()); err != nil {
		return err
	}
	// The state is P rows at every reading; whatever else a reading holds is
	// what the ingest path happened to leave referenced, which only adds. The
	// smallest reading is the repeatable one.
	res.e2e("live_heap_mb", slices.Min(p.heaps), "mb")
	return nil
}

// serveCounters turns the paced phase's stats deltas into layer metrics.
func serveCounters(res *runResult, a, b wire.Stats, events int64, framesPerSub float64) {
	var wait, flushed, applied, maxApplied uint64
	for i := range b.Shards {
		d := b.Shards[i].Applied - a.Shards[i].Applied
		applied += d
		maxApplied = max(maxApplied, d)
		wait += b.Shards[i].EnqueueWaitNS - a.Shards[i].EnqueueWaitNS
		flushed += b.Shards[i].Flushed - a.Shards[i].Flushed
	}
	skew := 0.0
	if applied > 0 {
		skew = float64(maxApplied) * float64(len(b.Shards)) / float64(applied)
	}
	res.layer("serve.enqueue_wait_ns_per_event", float64(wait)/float64(max(1, events)), "ns")
	res.layer("serve.shard_skew", skew, "ratio")
	res.layer("serve.sub_frames_per_batch", framesPerSub/float64(max(1, flushed)), "ratio")
	res.layer("wire.shed_batches", float64(b.Server.Shed-a.Server.Shed), "count")
}

// verifyOracle is -verify: replay the run's exact event stream through bare
// engine executors and require the oracle to agree with them.
func verifyOracle(rc runConfig, res *runResult, gen *Gen) error {
	rep, err := NewReplay(rc.W.Queries)
	if err != nil {
		return err
	}
	for _, e := range gen.log {
		if err := rep.Apply(e); err != nil {
			return err
		}
	}
	want := gen.ExpectAll()
	res.Attempted += int64(len(want.Scalar))
	bad, first := want.diff(rep.Answers(want))
	res.mismatch(int64(bad), "oracle differs from a bare-engine replay: %s", first)
	return nil
}
