// Package client is the Go client for the RPAI wire protocol: a connection
// pool speaking pipelined requests to an rpaiserver, with automatic event
// batching, bounded in-flight admission, and reconnect-with-backoff that
// resends unacknowledged batches exactly once (the server deduplicates them
// by session sequence number).
//
// Ingestion model: Apply buffers events into per-connection batches, sealed
// when BatchSize is reached or FlushInterval elapses. Events routed to the
// same connection (Options.Route) are applied by the server in submission
// order, so routing by partition key preserves per-partition order across the
// pool — the property the serving layer's semantics depend on. With a nil
// Route every event rides connection 0 and global order is preserved.
//
// Failure model: transient failures (connection loss, CodeOverloaded,
// CodeSeqGap) are retried internally — the connection reconnects with
// exponential backoff and re-sends every unacknowledged request in order.
// Sequenced batches are deduplicated server-side, so a batch whose ack was
// lost mid-flight is not applied twice. Permanent failures (bad request,
// version mismatch, client closed) are surfaced: read calls return them,
// batch failures park a sticky error returned by Apply/Drain/Close.
package client

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/engine"
	"rpai/internal/wire"
)

// ErrClientClosed is returned once Close has been called.
var ErrClientClosed = errors.New("wire client: closed")

// Options configures a Client; the zero value picks the defaults.
type Options struct {
	// Conns is the connection pool size (default 1).
	Conns int
	// MaxInFlight bounds unacknowledged pipelined requests per connection
	// (default 32). Apply blocks once a connection's pipeline and batch
	// queue are full — bounded admission instead of unbounded buffering.
	MaxInFlight int
	// BatchSize seals an apply batch after this many events (default 128).
	BatchSize int
	// FlushInterval seals a non-empty batch after this long even if it is
	// short (default 2ms), bounding ingestion latency at low rates.
	FlushInterval time.Duration
	// Route maps an event to a pool connection index (reduced modulo Conns).
	// Route by partition key to preserve per-partition order; nil routes
	// every event to connection 0.
	Route func(e engine.Event) int
	// DialTimeout bounds each dial attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds a read call round trip including internal
	// retries (default 30s).
	RequestTimeout time.Duration
	// BackoffBase and BackoffMax shape reconnect backoff (defaults 20ms, 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxFrame bounds reply frames (default wire.DefaultMaxFrame).
	MaxFrame uint32
	// OnBatchAck, when set, observes each batch's acknowledgement latency
	// (time from last wire write to ack). The wire benchmark uses it for its
	// latency percentiles.
	OnBatchAck func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 32
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 20 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	return o
}

// result is one decoded reply (or transport failure).
type result struct {
	t    wire.MsgType
	id   uint64
	body []byte
	err  error
}

// call is one pipelined request: kept by its connection until acknowledged,
// so it can be re-sent verbatim after a reconnect.
type call struct {
	t      wire.MsgType
	id     uint64
	body   []byte
	done   chan result // nil for batch calls (completion feeds the WaitGroup)
	sentAt time.Time   // last wire write, for the ack-latency hook
}

// Client is a pooled, pipelined wire-protocol client.
type Client struct {
	addr string
	opt  Options

	conns []*conn
	rr    atomic.Uint64 // round-robin cursor for read calls

	quit      chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool

	batchWG sync.WaitGroup // outstanding sealed batches

	errMu sync.Mutex
	err   error // sticky permanent batch failure
}

// Dial connects the pool and performs the handshake on every connection; any
// failure fails the whole Dial.
func Dial(addr string, opt Options) (*Client, error) {
	opt = opt.withDefaults()
	c := &Client{addr: addr, opt: opt, quit: make(chan struct{})}
	for i := 0; i < opt.Conns; i++ {
		cn := newConn(c, i)
		nc, br, err := cn.connect()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, cn)
		go cn.run(nc, br)
	}
	return c, nil
}

// setErr parks the first permanent failure.
func (c *Client) setErr(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Err returns the sticky permanent failure, if any.
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Apply buffers one event into its connection's current batch, sealing the
// batch at BatchSize. It blocks when the connection's pipeline is full
// (bounded admission) and returns the sticky error once ingestion has failed
// permanently.
func (c *Client) Apply(e engine.Event) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	if err := c.Err(); err != nil {
		return err
	}
	i := 0
	if c.opt.Route != nil {
		if i = c.opt.Route(e) % len(c.conns); i < 0 {
			i += len(c.conns)
		}
	}
	return c.conns[i].bufferEvent(e)
}

// Flush seals every connection's pending batch and submits it, without
// waiting for acknowledgements.
func (c *Client) Flush() error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	for _, cn := range c.conns {
		if err := cn.flush(); err != nil {
			return err
		}
	}
	return c.Err()
}

// Drain is the client-side barrier: it flushes and waits for every sealed
// batch to be acknowledged, then asks the server for its own drain barrier,
// so on return every event passed to Apply has been applied (and logged, for
// a durable server) server-side.
func (c *Client) Drain() error {
	if err := c.Flush(); err != nil {
		return err
	}
	c.batchWG.Wait()
	if err := c.Err(); err != nil {
		return err
	}
	r, err := c.roundtrip(wire.MsgDrain, nil)
	if err != nil {
		return err
	}
	if _, err := wire.DecodeAck(r.body); err != nil {
		return err
	}
	return nil
}

// Stats reads the server's admission and per-shard serving counters.
func (c *Client) Stats() (wire.Stats, error) {
	r, err := c.roundtrip(wire.MsgStats, nil)
	if err != nil {
		return wire.Stats{}, err
	}
	return wire.DecodeStats(r.body)
}

// Checkpoint asks the server to rotate a checkpoint into its data directory.
func (c *Client) Checkpoint() error {
	r, err := c.roundtrip(wire.MsgCheckpoint, nil)
	if err != nil {
		return err
	}
	_, err = wire.DecodeAck(r.body)
	return err
}

// Close tears the pool down. Unacknowledged work is abandoned — call Drain
// first for a clean handoff. Close is idempotent.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.closeOnce.Do(func() { close(c.quit) })
	return nil
}

// roundtrip submits one read call on the next pool connection and waits for
// its reply, bounded by RequestTimeout (internal reconnect retries included).
func (c *Client) roundtrip(t wire.MsgType, body []byte) (result, error) {
	if c.closed.Load() {
		return result{}, ErrClientClosed
	}
	cn := c.conns[int(c.rr.Add(1))%len(c.conns)]
	cl := &call{t: t, body: body, done: make(chan result, 1)}
	timeout := time.NewTimer(c.opt.RequestTimeout)
	defer timeout.Stop()
	select {
	case cn.out <- cl:
	case <-c.quit:
		return result{}, ErrClientClosed
	case <-timeout.C:
		return result{}, fmt.Errorf("wire client: %s request timed out in admission", t)
	}
	select {
	case r := <-cl.done:
		if r.err != nil {
			return result{}, r.err
		}
		return r, nil
	case <-timeout.C:
		return result{}, fmt.Errorf("wire client: %s request timed out", t)
	}
}

// conn is one pooled connection: a batch accumulator, a bounded submission
// queue, and a run loop that owns the socket through reconnects.
type conn struct {
	c       *Client
	idx     int
	session [wire.SessionIDLen]byte

	out chan *call // bounded admission into the pipeline

	bmu    sync.Mutex
	buf    []byte // length-prefixed encoded events of the open batch
	batchN uint32
	evBuf  []byte // scratch for one event's encoding
	seq    uint64 // last assigned batch sequence for this session
	nextID uint64
	timer  *time.Timer

	wbuf []byte // frame-encode scratch, owned by the exchange goroutine
}

func newConn(c *Client, idx int) *conn {
	cn := &conn{c: c, idx: idx, out: make(chan *call, c.opt.MaxInFlight)}
	if _, err := rand.Read(cn.session[:]); err != nil {
		// Fall back to a time-derived id; uniqueness, not secrecy, is needed.
		now := uint64(time.Now().UnixNano())
		for i := 0; i < wire.SessionIDLen; i++ {
			cn.session[i] = byte(now >> (8 * (i % 8)))
		}
		cn.session[0] = byte(idx)
	}
	cn.timer = time.AfterFunc(time.Hour, cn.flushTimer)
	cn.timer.Stop()
	return cn
}

// bufferEvent appends one event to the open batch, sealing at BatchSize.
func (cn *conn) bufferEvent(e engine.Event) error {
	cn.bmu.Lock()
	defer cn.bmu.Unlock()
	cn.evBuf = engine.EncodeEvent(cn.evBuf[:0], e)
	cn.buf = wire.AppendBatchEvent(cn.buf, cn.evBuf)
	cn.batchN++
	if cn.batchN >= uint32(cn.c.opt.BatchSize) {
		return cn.sealLocked()
	}
	if cn.batchN == 1 {
		cn.timer.Reset(cn.c.opt.FlushInterval)
	}
	return nil
}

// flushTimer seals a lingering short batch.
func (cn *conn) flushTimer() {
	cn.bmu.Lock()
	defer cn.bmu.Unlock()
	if cn.batchN > 0 {
		cn.sealLocked()
	}
}

// flush seals the open batch, if any.
func (cn *conn) flush() error {
	cn.bmu.Lock()
	defer cn.bmu.Unlock()
	if cn.batchN == 0 {
		return nil
	}
	return cn.sealLocked()
}

// sealLocked turns the open batch into a sequenced call and submits it. The
// submission blocks when the pipeline is full — that block, propagated up
// through Apply, is the client's admission control.
func (cn *conn) sealLocked() error {
	cn.timer.Stop()
	cn.seq++
	body := wire.AppendBatchHeader(make([]byte, 0, 12+len(cn.buf)), cn.seq, cn.batchN)
	body = append(body, cn.buf...)
	cn.buf = cn.buf[:0]
	cn.batchN = 0
	cl := &call{t: wire.MsgApplyBatch, body: body}
	cn.c.batchWG.Add(1)
	select {
	case cn.out <- cl:
		return nil
	case <-cn.c.quit:
		cn.c.batchWG.Done()
		return ErrClientClosed
	}
}

// connect dials and performs the handshake, returning the live socket and
// its buffered reader.
func (cn *conn) connect() (net.Conn, *bufio.Reader, error) {
	return dialHandshake(cn.c.addr, cn.c.opt, cn.session)
}

// dialHandshake dials addr, offers wire.Version and waits for the welcome. A
// server that speaks another version refuses with wire.ErrVersion.
func dialHandshake(addr string, opt Options, session [wire.SessionIDLen]byte) (net.Conn, *bufio.Reader, error) {
	d := net.Dialer{Timeout: opt.DialTimeout}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	hello := wire.EncodeHello(nil, wire.Hello{Version: wire.Version, Session: session})
	nc.SetDeadline(time.Now().Add(opt.RequestTimeout))
	if err := wire.WriteFrame(nc, wire.EncodeMsg(nil, wire.MsgHello, 0, hello)); err != nil {
		nc.Close()
		return nil, nil, err
	}
	payload, err := wire.ReadFrame(br, opt.MaxFrame)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	t, _, body, err := wire.DecodeMsg(payload)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	switch t {
	case wire.MsgWelcome:
		if _, err := wire.DecodeWelcome(body); err != nil {
			nc.Close()
			return nil, nil, err
		}
	case wire.MsgError:
		code, msg, derr := wire.DecodeError(body)
		nc.Close()
		if derr != nil {
			return nil, nil, derr
		}
		return nil, nil, code.Err(msg)
	default:
		nc.Close()
		return nil, nil, fmt.Errorf("wire client: unexpected handshake reply %s", t)
	}
	nc.SetDeadline(time.Time{})
	return nc, br, nil
}

// run owns the connection across reconnects: it writes submitted calls,
// matches replies in order, and on any transient failure abandons the socket,
// backs off, reconnects, and re-sends everything unacknowledged.
func (cn *conn) run(nc net.Conn, br *bufio.Reader) {
	var pending []*call
	backoff := cn.c.opt.BackoffBase
	for {
		if nc == nil {
			select {
			case <-cn.c.quit:
				cn.shutdown(pending)
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > cn.c.opt.BackoffMax {
				backoff = cn.c.opt.BackoffMax
			}
			var err error
			if nc, br, err = cn.connect(); err != nil {
				if errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrBadRequest) {
					cn.c.setErr(err)
					cn.fail(pending, err)
					cn.shutdown(nil)
					return
				}
				nc = nil
				continue
			}
		}
		replies := make(chan result, cn.c.opt.MaxInFlight+2)
		stop := make(chan struct{})
		go cn.read(nc, br, replies, stop)
		recovered := cn.exchange(nc, replies, &pending, &backoff)
		nc.Close()
		close(stop)
		nc, br = nil, nil
		if !recovered { // quit requested
			cn.shutdown(pending)
			return
		}
	}
}

// shutdown fails whatever is still queued and keeps draining submissions so
// late Apply/roundtrip callers unblock with ErrClientClosed.
func (cn *conn) shutdown(pending []*call) {
	cn.timer.Stop()
	cn.fail(pending, ErrClientClosed)
	for {
		select {
		case cl := <-cn.out:
			cn.deliver(cl, result{err: ErrClientClosed})
		default:
			return
		}
	}
}

// fail delivers err to every pending call.
func (cn *conn) fail(pending []*call, err error) {
	for _, cl := range pending {
		cn.deliver(cl, result{err: err})
	}
}

// deliver completes one call.
func (cn *conn) deliver(cl *call, r result) {
	if cl.done != nil {
		cl.done <- r // buffered, never blocks
		return
	}
	// Batch call: feed the latency hook and the drain barrier; park
	// permanent errors for Apply/Drain to report.
	if r.err == nil && cn.c.opt.OnBatchAck != nil {
		cn.c.opt.OnBatchAck(time.Since(cl.sentAt))
	}
	if r.err != nil && !errors.Is(r.err, ErrClientClosed) {
		cn.c.setErr(r.err)
	}
	cn.c.batchWG.Done()
}

// write frames and sends one call.
func (cn *conn) write(nc net.Conn, cl *call) error {
	cl.id = cn.nextID
	cn.nextID++
	cl.sentAt = time.Now()
	cn.wbuf = wire.EncodeMsg(cn.wbuf[:0], cl.t, cl.id, cl.body)
	return wire.WriteFrame(nc, cn.wbuf)
}

// exchange drives one live socket. It returns true to reconnect (transient
// failure) or false on quit. pending survives across calls so re-sends keep
// their order and their batch sequence numbers.
func (cn *conn) exchange(nc net.Conn, replies <-chan result, pending *[]*call, backoff *time.Duration) bool {
	// First re-send everything unacknowledged from the previous incarnation.
	for _, cl := range *pending {
		if err := cn.write(nc, cl); err != nil {
			return true
		}
	}
	for {
		// Admit new submissions only while the pipeline has room.
		out := cn.out
		if len(*pending) >= cn.c.opt.MaxInFlight {
			out = nil
		}
		select {
		case cl := <-out:
			*pending = append(*pending, cl)
			if err := cn.write(nc, cl); err != nil {
				return true
			}
		case r := <-replies:
			if r.err != nil {
				return true
			}
			if len(*pending) == 0 {
				return true // unsolicited reply: protocol violation, resync
			}
			head := (*pending)[0]
			if r.id != head.id {
				return true // ordering violation: tear down and resync
			}
			if r.t == wire.MsgError {
				code, msg, derr := wire.DecodeError(r.body)
				if derr != nil {
					return true
				}
				if code.Transient() {
					return true // reconnect+resend; backoff keeps growing
				}
				cn.deliver(head, result{err: code.Err(msg)})
				*pending = (*pending)[1:]
				continue
			}
			cn.deliver(head, r)
			*pending = (*pending)[1:]
			*backoff = cn.c.opt.BackoffBase // progress: reset backoff
		case <-cn.c.quit:
			return false
		}
	}
}

// read is the per-incarnation reply reader.
func (cn *conn) read(nc net.Conn, br *bufio.Reader, replies chan<- result, stop <-chan struct{}) {
	for {
		payload, err := wire.ReadFrame(br, cn.c.opt.MaxFrame)
		if err != nil {
			select {
			case replies <- result{err: err}:
			case <-stop:
			}
			return
		}
		t, id, body, err := wire.DecodeMsg(payload)
		if err != nil {
			select {
			case replies <- result{err: err}:
			case <-stop:
			}
			return
		}
		select {
		case replies <- result{t: t, id: id, body: body}:
		case <-stop:
			return
		}
	}
}
