package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/wire/client"
)

// Client options of the single ingest connection, fixed for every workload.
const (
	clientBatchSize   = 256
	clientMaxInFlight = 32
	paceTick          = 2 * time.Millisecond  // open-loop tick, one flush each: the client's default FlushInterval
	markerEvery       = 10 * time.Millisecond // one marker event per this interval
)

// query0 is the QueryID every latency is taken on.
const query0 = catalog.QueryID(1)

// ackTracker matches batch acknowledgements to the batches this process
// sealed. The client acknowledges batches in seal order on its single
// connection, so a FIFO is enough. In the paced phase lat collects
// due-to-ack latency; a traced phase also gets a span per batch.
type ackTracker struct {
	mu     sync.Mutex
	fifo   []sealedBatch
	head   int
	seq    int64
	lat    *latencies // nil: count only
	tr     *tracer    // nil: no spans
	parent int
}

type sealedBatch struct {
	due time.Time
	n   int
	seq int64
}

// sealed must be called before the client call that seals the batch, so the
// entry is queued before its ack can arrive.
func (a *ackTracker) sealed(due time.Time, n int) {
	a.mu.Lock()
	a.seq++
	a.fifo = append(a.fifo, sealedBatch{due: due, n: n, seq: a.seq})
	a.mu.Unlock()
}

// onAck is the client's OnBatchAck hook.
func (a *ackTracker) onAck(time.Duration) {
	now := time.Now()
	a.mu.Lock()
	b := a.fifo[a.head]
	a.head++
	if a.head == len(a.fifo) {
		a.fifo, a.head = a.fifo[:0], 0
	}
	if a.lat != nil {
		a.lat.add(b.due, now.Sub(b.due))
	}
	tr, parent := a.tr, a.parent
	a.mu.Unlock()
	tr.add("batch", b.due, now, parent, b.seq, b.n)
}

// mode switches what acknowledgements record from now on.
func (a *ackTracker) mode(lat *latencies, tr *tracer, parent int) {
	a.mu.Lock()
	a.lat, a.tr, a.parent = lat, tr, parent
	a.mu.Unlock()
}

// driver is the single load-generator: one ingest connection fed from one
// goroutine, plus a second connection for reads and control calls so they
// never queue behind ingest batches.
type driver struct {
	w     Workload
	gen   *Gen
	ing   *client.Client
	ctl   *client.Client
	acks  *ackTracker
	tuple query.Tuple
	open  int // events in the client's open batch
	sent  int64
}

func dialDriver(addr string, w Workload, gen *Gen) (*driver, error) {
	d := &driver{w: w, gen: gen, acks: &ackTracker{}, tuple: make(query.Tuple, 3)}
	var err error
	d.ing, err = client.Dial(addr, client.Options{
		Conns:       1,
		BatchSize:   clientBatchSize,
		MaxInFlight: clientMaxInFlight,
		// Batches are sealed by size or by this process's explicit Flush,
		// never by the client's timer, so batch boundaries are known here.
		FlushInterval: time.Hour,
		OnBatchAck:    d.acks.onAck,
	})
	if err != nil {
		return nil, err
	}
	if d.ctl, err = client.Dial(addr, client.Options{Conns: 1}); err != nil {
		d.ing.Close()
		return nil, err
	}
	return d, nil
}

func (d *driver) close() {
	d.ing.Close()
	d.ctl.Close()
}

// send buffers one event; due is when it was due (now, in a closed loop).
func (d *driver) send(e Event, due time.Time) error {
	d.open++
	if d.open == clientBatchSize {
		d.acks.sealed(due, d.open)
		d.open = 0
	}
	d.sent++
	return d.ing.Apply(e.fill(d.tuple))
}

// flush seals the open batch, if any.
func (d *driver) flush(due time.Time) error {
	if d.open == 0 {
		return nil
	}
	d.acks.sealed(due, d.open)
	d.open = 0
	return d.ing.Flush()
}

// drain flushes, waits for every ack, and waits for the server's own barrier:
// on return every event sent has been applied and logged.
func (d *driver) drain() error {
	if err := d.flush(time.Now()); err != nil {
		return err
	}
	return d.ing.Drain()
}

// preload inserts the workload's P rows in a closed loop.
func (d *driver) preload() error {
	for i := 0; i < d.w.Preload; i++ {
		if err := d.send(d.gen.Insert(), time.Now()); err != nil {
			return err
		}
	}
	return d.drain()
}

// satWindowLen is the length of one closed-loop window. Windows are
// separated by a drain and a calibration run, so each has the host's speed
// measured on both sides of it.
const satWindowLen = 500 * time.Millisecond

// satWindow is one closed-loop window: what was sent and applied in it, what
// it cost the server, and how fast the host was around it.
type satWindow struct {
	wall   time.Duration // first send to drained
	events int64
	cpu    cpuTimes      // server CPU consumed
	self   float64       // load-generator CPU seconds consumed
	kernel time.Duration // mean calibration-kernel time before and after
}

// sumWindows adds windows up (the kernel readings are not summed).
func sumWindows(ws []satWindow) satWindow {
	var t satWindow
	for _, w := range ws {
		t.wall += w.wall
		t.events += w.events
		t.cpu.User += w.cpu.User
		t.cpu.Sys += w.cpu.Sys
		t.self += w.self
	}
	return t
}

// steady reduces a closed-loop phase to the windows its metrics are taken
// over and the host speed to scale them by. The first window is warm-up (and
// the reading before it was taken on a cold, idle server, unlike all the
// others). Of the rest the slowest is dropped: these hosts stall for tens of
// milliseconds now and then, and one stall should not decide a run. What
// remains is summed, not medianed — a window holds whole collector cycles or
// none, so single windows are lumpy where their total is not — and scaled by
// the median of the phase's kernel readings.
func steady(ws []satWindow) (sum satWindow, kernel time.Duration) {
	if len(ws) > 2 {
		ws = ws[1:]
	}
	ks := make([]float64, len(ws))
	slowest := 0
	for i, w := range ws {
		ks[i] = float64(w.kernel)
		if float64(w.events)/w.wall.Seconds() < float64(ws[slowest].events)/ws[slowest].wall.Seconds() {
			slowest = i
		}
	}
	kept := append([]satWindow(nil), ws...)
	if len(kept) > 2 {
		kept = append(kept[:slowest], kept[slowest+1:]...)
	}
	return sumWindows(kept), time.Duration(median(ks))
}

// steadyRate is the phase's ingest rate at the reference host speed.
func steadyRate(ws []satWindow) float64 {
	sum, k := steady(ws)
	return float64(sum.events) / atRef(sum.wall.Seconds(), k)
}

// steadyCPU is the phase's server CPU per event, in microseconds, at the
// reference host speed.
func steadyCPU(ws []satWindow) float64 {
	sum, k := steady(ws)
	return atRef(1e6*sum.cpu.total()/float64(sum.events), k)
}

// saturate drives steady-state events in a closed loop for about dur, one
// window at a time. rd, when set, gets its pull readers triggered on their
// schedule from this loop.
func (d *driver) saturate(dur time.Duration, srv *server, rd *readers, kernel func() (time.Duration, error)) ([]satWindow, error) {
	var windows []satWindow
	kPrev, err := kernel()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	nextPull := start.Add(d.w.PullEvery)
	for time.Since(start) < dur {
		cpu0, err := srv.cpu()
		if err != nil {
			return nil, err
		}
		self0, sent0, w0 := selfCPU(), d.sent, time.Now()
		for {
			// The clock is read once per client batch, not per event.
			now := time.Now()
			if now.Sub(w0) >= satWindowLen {
				break
			}
			if rd != nil && !now.Before(nextPull) {
				rd.triggerPulls(nextPull, false)
				nextPull = nextPull.Add(d.w.PullEvery)
			}
			for i := 0; i < clientBatchSize; i++ {
				if err := d.send(d.gen.Next(), now); err != nil {
					return nil, err
				}
			}
		}
		if err := d.drain(); err != nil {
			return nil, err
		}
		wall := time.Since(w0)
		cpu1, err := srv.cpu()
		if err != nil {
			return nil, err
		}
		self1 := selfCPU()
		kNext, err := kernel()
		if err != nil {
			return nil, err
		}
		windows = append(windows, satWindow{wall, d.sent - sent0, cpu1.sub(cpu0), self1 - self0, (kPrev + kNext) / 2})
		kPrev = kNext
		nextPull = time.Now().Add(d.w.PullEvery) // no reads fell due while the loop was paused
	}
	return windows, nil
}

// markerLog is the paced phase's marker schedule, shared with subscribers.
type markerLog struct {
	mu   sync.Mutex
	base int64 // markers applied before the paced phase
	due  []time.Time
}

func (m *markerLog) add(due time.Time) {
	m.mu.Lock()
	m.due = append(m.due, due)
	m.mu.Unlock()
}

// pacedResult is what the open loop reports about itself.
type pacedResult struct {
	events  int64 // events due and sent (markers included)
	markers int
	late    *latencies
}

// paced runs the open loop for dur at the workload's fixed rate: each tick
// sends the events that fell due, a marker every markerEvery, and one flush.
func (d *driver) paced(dur time.Duration, clk clock, marks *markerLog, rd *readers) (pacedResult, error) {
	p := newPacer(clk, paceTick, d.w.Rate)
	ticks := int(dur / paceTick)
	markTicks := int(markerEvery / paceTick)
	pullTicks := int(d.w.PullEvery / paceTick)
	res := pacedResult{late: &p.late}
	before := d.sent
	for k := 1; k <= ticks; k++ {
		due, n := p.next()
		for i := 0; i < n; i++ {
			if err := d.send(d.gen.Next(), due); err != nil {
				return res, err
			}
		}
		if k%pullTicks == 0 {
			rd.triggerPulls(due, true)
		}
		if k%markTicks == 0 {
			marks.add(due)
			res.markers++
			if err := d.send(d.gen.Marker(), due); err != nil {
				return res, err
			}
		}
		last := p.dueOf(p.sent) // the batch's last event fell due here
		if k%markTicks == 0 {
			last = due
		}
		if err := d.flush(last); err != nil {
			return res, err
		}
	}
	res.events = d.sent - before
	return res, nil
}

// answers reads every registration's scalar and grouped result.
func (d *driver) answers() (Answers, error) {
	var a Answers
	for i := range d.w.Queries {
		id := catalog.QueryID(i + 1)
		s, err := d.ctl.ResultQuery(id)
		if err != nil {
			return a, fmt.Errorf("ResultQuery(%d): %w", id, err)
		}
		g, err := d.ctl.ResultGroupedQuery(id)
		if err != nil {
			return a, fmt.Errorf("ResultGroupedQuery(%d): %w", id, err)
		}
		a.Scalar = append(a.Scalar, s)
		a.Grouped = append(a.Grouped, g)
	}
	return a, nil
}

// readers is the population attached to query 0: push subscribers folding
// frames into a serve.View, and pull readers on a fixed schedule.
type readers struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	subs   []*subscriber
	pulls  []*puller
}

type subscriber struct {
	sub    *client.Subscription
	view   *serve.View
	marker float64 // the marker partition's key

	frames atomic.Int64
	groups atomic.Int64

	mu      sync.Mutex
	marks   *markerLog // nil outside the paced phase
	seen    int64      // markers observed so far
	fresh   latencies
	fulls   int // Full frames received (2 seed the view; more are resets)
	viewErr error
	tr      *tracer
	parent  int
}

type puller struct {
	// due carries the instants at which reads fall due. The ingest goroutine
	// feeds it from its own schedule; a reader that falls behind finds its
	// next due times queued, so the wait is counted in the next latency.
	due chan time.Time

	mu      sync.Mutex
	lat     *latencies // nil outside the paced phase
	reads   int64
	failed  int64
	dropped int64 // due times that found the queue full
	tr      *tracer
	parent  int
}

// triggerPulls tells every pull reader that a read fell due. An open loop
// queues the due time whatever the reader is doing; a closed loop (queue
// false) skips a reader that has not finished its previous read.
func (r *readers) triggerPulls(due time.Time, queue bool) {
	for _, p := range r.pulls {
		if !queue && len(p.due) > 0 {
			continue
		}
		select {
		case p.due <- due:
		default:
			p.mu.Lock()
			p.dropped++
			p.mu.Unlock()
		}
	}
}

// attachReaders starts the workload's readers on query 0.
func (d *driver) attachReaders(addr string) (*readers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &readers{cancel: cancel}
	for i := 0; i < d.w.PushSubs; i++ {
		sub, err := d.ctl.SubscribeQuery(query0, client.SubOptions{Buffer: 64})
		if err != nil {
			r.detach()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		s := &subscriber{sub: sub, view: serve.NewView(), marker: float64(d.gen.MarkerSym())}
		r.subs = append(r.subs, s)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			s.run()
		}()
	}
	for i := 0; i < d.w.PullReaders; i++ {
		// Each pull reader has its own connection: a reader that shared one
		// would queue behind the others' replies.
		c, err := client.Dial(addr, client.Options{Conns: 1})
		if err != nil {
			r.detach()
			return nil, err
		}
		// The queue holds ten seconds of due times at a 10 ms schedule.
		p := &puller{due: make(chan time.Time, 1024)}
		r.pulls = append(r.pulls, p)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer c.Close()
			p.run(ctx, c)
		}()
	}
	return r, nil
}

// frames is the number of delta frames all subscribers have received.
func (r *readers) frames() int64 {
	var n int64
	for _, s := range r.subs {
		n += s.frames.Load()
	}
	return n
}

// detach stops the readers and waits for their goroutines.
func (r *readers) detach() {
	r.cancel()
	for _, s := range r.subs {
		s.sub.Close()
	}
	r.wg.Wait()
}

// measure switches latency recording on (paced phase) or off.
func (r *readers) measure(marks *markerLog, tr *tracer, parent int) {
	for _, s := range r.subs {
		s.mu.Lock()
		s.marks, s.tr, s.parent = marks, tr, parent
		if marks != nil {
			s.seen = marks.base
		}
		s.mu.Unlock()
	}
	for _, p := range r.pulls {
		p.mu.Lock()
		p.tr, p.parent = tr, parent
		if marks != nil {
			p.lat = &latencies{}
		}
		p.mu.Unlock()
	}
}

func (s *subscriber) run() {
	for f := range s.sub.Frames() {
		now := time.Now()
		s.frames.Add(1)
		s.groups.Add(int64(len(f.Groups)))
		err := s.view.Apply(f)
		s.mu.Lock()
		if err != nil && s.viewErr == nil {
			s.viewErr = err
		}
		if f.Full {
			s.fulls++
		}
		if s.marks != nil {
			s.observe(f, now)
		}
		s.mu.Unlock()
	}
}

// observe credits every marker the frame's marker-group value covers: the
// group's value under query 0 is the count of markers applied.
func (s *subscriber) observe(f serve.DeltaFrame, now time.Time) {
	for _, g := range f.Groups {
		if g.Key[0] != s.marker {
			continue
		}
		s.marks.mu.Lock()
		for s.seen < int64(g.Value) && int(s.seen-s.marks.base) < len(s.marks.due) {
			due := s.marks.due[s.seen-s.marks.base]
			s.seen++
			s.fresh.add(due, now.Sub(due))
			s.tr.add("marker", due, now, s.parent, s.seen, 1)
		}
		s.marks.mu.Unlock()
	}
}

func (p *puller) run(ctx context.Context, c *client.Client) {
	for k := int64(1); ; k++ {
		var due time.Time
		select {
		case <-ctx.Done():
			return
		case due = <-p.due:
		}
		_, err := c.ResultGroupedQuery(query0)
		now := time.Now()
		p.mu.Lock()
		p.reads++
		if err != nil {
			p.failed++
		} else if p.lat != nil {
			p.lat.add(due, now.Sub(due))
		}
		tr, parent := p.tr, p.parent
		p.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		tr.add("read", due, now, parent, k, 1)
	}
}

// viewsMatch waits (briefly: the server has been drained) for every
// subscriber's view to equal want, the pulled grouped result.
func (r *readers) viewsMatch(want []engine.GroupResult, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		bad := 0
		for _, s := range r.subs {
			if !sameGroups(s.view.Grouped(), want) {
				bad++
			}
		}
		if bad == 0 || time.Now().After(deadline) {
			return bad
		}
		time.Sleep(5 * time.Millisecond)
	}
}
