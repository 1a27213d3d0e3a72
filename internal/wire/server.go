package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/serve"
)

// ServerConfig parameterizes the daemon. The zero value picks the defaults.
type ServerConfig struct {
	// MaxInFlight is the global admission limit: the number of work-carrying
	// requests (batch, drain, checkpoint, register, unregister) admitted but
	// not yet completed, across all connections. Beyond it new work is shed
	// with CodeOverloaded instead of queued (default 256). Read-only requests
	// (result, stats) bypass the limiter so the server stays observable
	// under overload.
	MaxInFlight int
	// PerConnQueue bounds the pipelined requests buffered per connection
	// between its read loop and its worker (default 32). A full queue stops
	// the read loop, pushing backpressure into TCP.
	PerConnQueue int
	// IdleTimeout is the per-frame read deadline (0 means the default, 5m;
	// a negative value disables it). A connection that sends nothing for
	// longer is torn down.
	IdleTimeout time.Duration
	// MaxFrame bounds request frame payloads (default DefaultMaxFrame).
	MaxFrame uint32
}

// writeTimeout is the per-flush write deadline.
const writeTimeout = 30 * time.Second

// maxSessions caps the batch-dedup session table; beyond it the oldest
// session is evicted.
const maxSessions = 4096

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.PerConnQueue <= 0 {
		c.PerConnQueue = 32
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// session is one client session's batch-dedup state. Its mutex serializes
// sequenced applies, so a batch resent over a new connection waits for the
// original connection's in-flight application of the same batch and then
// deduplicates against it.
type session struct {
	mu      sync.Mutex
	lastSeq uint64
}

// Server is the TCP front door over a query catalog: it speaks the wire
// protocol, pipelines per connection, sheds load past the admission limiter,
// and deduplicates sequenced batches per session. Over a follower catalog
// (catalog.Follow) it is read-only: every write-carrying request (batch,
// drain, checkpoint, register, unregister) is refused with
// CodeReadOnly before admission, so refused writes never consume tokens,
// while reads and subscriptions are unaffected.
type Server struct {
	cat *catalog.Service
	cfg ServerConfig

	tokens   chan struct{} // admission limiter; one token per in-flight work request
	accepted atomic.Uint64
	shed     atomic.Uint64

	sessMu    sync.Mutex
	sessions  map[[SessionIDLen]byte]*session
	sessOrder [][SessionIDLen]byte // insertion order, for eviction

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewCatalogServer returns a Server hosting cat: ingest fans out to every
// registered query, and connections register, unregister, explain, read and
// subscribe by QueryID. The caller keeps ownership of cat: after Close
// returns, drain and close it.
func NewCatalogServer(cat *catalog.Service, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cat:      cat,
		cfg:      cfg,
		tokens:   make(chan struct{}, cfg.MaxInFlight),
		sessions: make(map[[SessionIDLen]byte]*session),
		lns:      make(map[net.Listener]struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(nc)
	}
}

// Close stops the server gracefully: the listeners close first, every
// connection's read loop is woken so no new requests are accepted, each
// connection's already-admitted requests finish and their replies flush, and
// Close returns once every handler has exited. The catalog itself is left
// running — the owner drains and closes it (flushing the WAL) afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	// Wake blocked readers; handlers then drain their queues and exit.
	past := time.Now().Add(-time.Second)
	for nc := range s.conns {
		nc.SetReadDeadline(past)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats returns the daemon-level counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	conns := uint64(len(s.conns))
	s.mu.Unlock()
	s.sessMu.Lock()
	sessions := uint64(len(s.sessions))
	s.sessMu.Unlock()
	return ServerStats{
		Accepted:    s.accepted.Load(),
		Shed:        s.shed.Load(),
		InFlight:    uint64(len(s.tokens)),
		ActiveConns: conns,
		Sessions:    sessions,
	}
}

// session returns (creating if needed) the dedup state for a session id,
// evicting the oldest session past the cap.
func (s *Server) session(id [SessionIDLen]byte) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		return sess
	}
	for len(s.sessions) >= maxSessions && len(s.sessOrder) > 0 {
		old := s.sessOrder[0]
		s.sessOrder = s.sessOrder[1:]
		delete(s.sessions, old)
	}
	sess := &session{}
	s.sessions[id] = sess
	s.sessOrder = append(s.sessOrder, id)
	return sess
}

// reqItem is one pipelined request handed from a connection's read loop to
// its worker. A shed item carries no token and is answered with
// CodeOverloaded without touching the service.
type reqItem struct {
	t     MsgType
	id    uint64
	body  []byte
	token bool // holds an admission token, released after processing
	shed  bool
}

// connScratch holds one connection's reusable buffers: the frame-encode
// scratch, a reply-body scratch for the hot request types, and the batch the
// catalog decodes each apply-batch into — rows bound to the catalog's
// schema, so a connection retains no column name outside it. A connection's
// requests are processed by a single worker strictly in order and every
// reply is written before the next request is taken, so the scratch needs no
// locking and no copy-out.
type connScratch struct {
	frame []byte
	body  []byte
	batch catalog.Batch
}

// needsToken reports whether a request type is work-carrying and therefore
// subject to admission control.
func needsToken(t MsgType) bool {
	switch t {
	case MsgApplyBatch, MsgDrain, MsgCheckpoint, MsgRegister, MsgUnregister:
		return true
	}
	return false
}

// handle runs one connection: handshake, then a read loop feeding a bounded
// queue and a worker writing replies strictly in request order.
func (s *Server) handle(nc net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
		s.wg.Done()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)

	sess, err := s.handshake(nc, br, bw)
	if err != nil {
		return
	}

	work := make(chan reqItem, s.cfg.PerConnQueue)
	var streaming atomic.Bool // set once the connection subscribes
	var ww sync.WaitGroup
	ww.Add(1)
	go func() {
		defer ww.Done()
		s.worker(nc, bw, sess, &streaming, work)
	}()
	defer ww.Wait()
	defer close(work)

	for {
		// A subscribed connection legitimately goes silent; its liveness is
		// the socket itself, so the idle deadline no longer applies.
		if s.cfg.IdleTimeout > 0 && !streaming.Load() {
			nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		payload, err := ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			return // EOF, deadline wake-up from Close, or corruption: tear down
		}
		t, id, body, err := DecodeMsg(payload)
		if err != nil {
			return
		}
		it := reqItem{t: t, id: id, body: body}
		// A read-only server never admits write work, so it never spends
		// tokens on requests it will refuse.
		if needsToken(t) && !s.cat.ReadOnly() {
			select {
			case s.tokens <- struct{}{}:
				it.token = true
				s.accepted.Add(1)
			default:
				it.shed = true
				s.shed.Add(1)
			}
		}
		work <- it // bounded: blocks (and stops reading) when the worker lags
	}
}

// handshake performs the hello/welcome exchange. There is one protocol
// version: a hello carrying any other is refused with CodeVersion.
func (s *Server) handshake(nc net.Conn, br *bufio.Reader, bw *bufio.Writer) (*session, error) {
	if s.cfg.IdleTimeout > 0 {
		nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	payload, err := ReadFrame(br, s.cfg.MaxFrame)
	if err != nil {
		return nil, err
	}
	t, id, body, err := DecodeMsg(payload)
	if err != nil || t != MsgHello {
		s.reply(nc, bw, MsgError, id, EncodeError(nil, CodeBadRequest, "expected hello"))
		return nil, ErrBadRequest
	}
	h, err := DecodeHello(body)
	if err != nil {
		s.reply(nc, bw, MsgError, id, EncodeError(nil, CodeBadRequest, err.Error()))
		return nil, ErrBadRequest
	}
	if h.Version != Version {
		s.reply(nc, bw, MsgError, id, EncodeError(nil, CodeVersion,
			fmt.Sprintf("server speaks version %d, client sent %d", Version, h.Version)))
		return nil, ErrVersion
	}
	w := Welcome{Version: Version, Shards: uint32(s.cat.Shards())}
	if err := s.reply(nc, bw, MsgWelcome, id, EncodeWelcome(nil, w)); err != nil {
		return nil, err
	}
	return s.session(h.Session), nil
}

// reply writes one framed message and flushes it.
func (s *Server) reply(nc net.Conn, bw *bufio.Writer, t MsgType, id uint64, body []byte) error {
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := WriteFrame(bw, EncodeMsg(make([]byte, 0, msgHeaderLen+len(body)), t, id, body)); err != nil {
		return err
	}
	return bw.Flush()
}

// worker processes a connection's queued requests in order, writing replies
// through the buffered writer and flushing whenever the queue goes idle.
// Closing the work channel drains the remaining items (their replies still go
// out) and exits; hence graceful shutdown never drops an admitted request.
func (s *Server) worker(nc net.Conn, bw *bufio.Writer, sess *session, streaming *atomic.Bool, work <-chan reqItem) {
	cs := &connScratch{}
	flush := func() {
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		bw.Flush()
	}
	for {
		var it reqItem
		var ok bool
		select {
		case it, ok = <-work:
		default:
			flush()
			it, ok = <-work
		}
		if !ok {
			flush()
			return
		}
		if it.t == MsgSubscribeQ {
			if s.subscribeConn(nc, bw, streaming, it, work) {
				return // push mode ran until the connection went away
			}
			continue // subscribe refused with an error reply; keep serving
		}
		t, body := s.process(cs, sess, it)
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		cs.frame = EncodeMsg(cs.frame[:0], t, it.id, body)
		err := WriteFrame(bw, cs.frame)
		if it.token {
			<-s.tokens
		}
		if err != nil {
			// The connection is gone; keep draining items to release tokens.
			for it = range work {
				if it.token {
					<-s.tokens
				}
			}
			return
		}
	}
}

// subscribeConn handles MsgSubscribeQ on the connection's worker. A refused
// subscribe (bad body, unknown query, closed catalog) gets an error reply and
// returns false so the worker keeps serving requests. A successful subscribe
// turns the worker into the subscription's pump: it acknowledges with
// MsgSubscribed and then streams MsgDeltaQ frames — echoing the subscribe
// request's id — until the connection or the query's executor set goes away,
// returning true so the worker exits. A subscription that ended on a failure
// (serve.ErrSubscriptionFailed) is reported with a CodeInternal error frame
// before the connection closes.
func (s *Server) subscribeConn(nc net.Conn, bw *bufio.Writer, streaming *atomic.Bool, it reqItem, work <-chan reqItem) bool {
	qid, req, err := DecodeSubscribeQ(it.body)
	if err != nil {
		s.reply(nc, bw, MsgError, it.id, EncodeError(nil, CodeBadRequest, err.Error()))
		return false
	}
	opt := serve.SubOptions{Keys: req.Keys, Resume: req.Resume, ResumeEpoch: req.Epoch}
	var epoch uint64
	sub, err := s.cat.Subscribe(qid, opt)
	if err == nil {
		epoch, err = s.cat.Epoch(qid)
	}
	if err != nil {
		t, body := errReply(err)
		s.reply(nc, bw, t, it.id, body)
		return false
	}
	defer sub.Close()
	// Drop the read loop's idle deadline before acknowledging: a subscriber
	// goes silent by design. Under s.mu so a concurrent server Close (which
	// wakes every reader with a past deadline) is never un-done.
	s.mu.Lock()
	closed := s.closed
	if !closed {
		streaming.Store(true)
		nc.SetReadDeadline(time.Time{})
	}
	s.mu.Unlock()
	if closed {
		s.reply(nc, bw, MsgError, it.id, EncodeError(nil, CodeClosed, ""))
		return false
	}
	ack := EncodeSubscribed(nil, Subscribed{Shards: uint32(s.cat.Shards()), Epoch: epoch})
	if err := s.reply(nc, bw, MsgSubscribed, it.id, ack); err != nil {
		s.drainWork(work)
		return true
	}
	var frame, body []byte
	for {
		select {
		case fr, ok := <-sub.Frames():
			if !ok {
				// The service closed the subscription; tear the connection
				// down so the read loop unblocks and closes work.
				if err := sub.Err(); err != nil {
					s.reply(nc, bw, MsgError, it.id, EncodeError(nil, CodeInternal, err.Error()))
				}
				nc.Close()
				s.drainWork(work)
				return true
			}
			body = EncodeDeltaQ(body[:0], qid, fr)
			frame = EncodeMsg(frame[:0], MsgDeltaQ, it.id, body)
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := WriteFrame(bw, frame); err != nil {
				s.drainWork(work)
				return true
			}
			if len(sub.Frames()) == 0 {
				if err := bw.Flush(); err != nil {
					s.drainWork(work)
					return true
				}
			}
		case other, ok := <-work:
			if !ok {
				return true // connection torn down
			}
			if other.token {
				<-s.tokens
			}
			// The protocol forbids further requests on a subscribed
			// connection; refuse each without leaving push mode.
			s.reply(nc, bw, MsgError, other.id, EncodeError(nil, CodeBadRequest, "connection is subscribed"))
		}
	}
}

// drainWork consumes the remaining queued requests of a dead connection so
// the read loop unblocks and admission tokens are released.
func (s *Server) drainWork(work <-chan reqItem) {
	for it := range work {
		if it.token {
			<-s.tokens
		}
	}
}

// process executes one request and returns the reply. Replies on the hot
// paths (acks, scalar results) are built in cs.body; error replies are cold
// and allocate.
func (s *Server) process(cs *connScratch, sess *session, it reqItem) (MsgType, []byte) {
	if it.shed {
		return MsgError, EncodeError(nil, CodeOverloaded, "admission limiter saturated")
	}
	if s.cat.ReadOnly() && needsToken(it.t) {
		return MsgError, EncodeError(nil, CodeReadOnly, "server is a read-only replica")
	}
	switch it.t {
	case MsgApplyBatch:
		return s.processBatch(cs, sess, it.body)

	case MsgDrain:
		if err := s.cat.DrainAll(); err != nil {
			return errReply(err)
		}
		return MsgAck, EncodeAck(nil, 0)

	case MsgResultQ:
		id, err := DecodeQueryID(it.body)
		if err != nil {
			return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
		}
		v, err := s.cat.Result(id)
		if err != nil {
			return errReply(err)
		}
		cs.body = EncodeScalar(cs.body[:0], v)
		return MsgScalar, cs.body

	case MsgGroupedQ:
		id, err := DecodeQueryID(it.body)
		if err != nil {
			return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
		}
		groups, err := s.cat.ResultGrouped(id)
		if err != nil {
			return errReply(err)
		}
		return MsgGrouped, EncodeGrouped(nil, groups)

	case MsgStats:
		return s.processStats()

	case MsgCheckpoint:
		if err := s.cat.Checkpoint(); err != nil {
			return errReply(err)
		}
		return MsgAck, EncodeAck(nil, 0)

	case MsgRegister:
		sql, err := DecodeRegister(it.body)
		if err != nil {
			return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
		}
		_, ex, err := s.cat.Register(sql)
		if err != nil {
			if errors.Is(err, catalog.ErrClosed) {
				return MsgError, EncodeError(nil, CodeClosed, "")
			}
			// Parse and plan failures carry positions worth relaying verbatim.
			return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
		}
		return MsgRegistered, EncodeExplain(nil, ex)

	case MsgUnregister:
		id, err := DecodeQueryID(it.body)
		if err != nil {
			return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
		}
		if err := s.cat.Unregister(id); err != nil {
			return errReply(err)
		}
		return MsgAck, EncodeAck(nil, 0)

	case MsgListQueries:
		if len(it.body) != 0 {
			return MsgError, EncodeError(nil, CodeBadRequest, "list-queries takes no body")
		}
		return MsgQueryList, EncodeQueryList(nil, s.cat.List())

	case MsgExplain:
		id, err := DecodeQueryID(it.body)
		if err != nil {
			return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
		}
		ex, err := s.cat.Get(id)
		if err != nil {
			return errReply(err)
		}
		return MsgExplained, EncodeExplain(nil, ex)
	}
	return MsgError, EncodeError(nil, CodeBadRequest, fmt.Sprintf("unknown request type %d", it.t))
}

// processStats builds the stats reply: daemon counters, the shard table of
// the lowest live QueryID (the first of the QueryID-ordered stats list), and
// the per-query counter table.
func (s *Server) processStats() (MsgType, []byte) {
	st := Stats{Server: s.Stats()}
	qs := s.cat.Stats()
	if len(qs) > 0 {
		if sh, err := s.cat.ShardStats(qs[0].ID); err == nil {
			st.Shards = sh
		}
	}
	st.Queries = make([]QueryStats, 0, len(qs))
	for _, q := range qs {
		st.Queries = append(st.Queries, QueryStats{
			ID:          uint64(q.ID),
			SetID:       q.SetID,
			Applied:     q.Applied,
			Rejected:    q.Rejected,
			Subscribers: uint64(q.Subscribers),
			Strategy:    q.Strategy,
			SQL:         q.SQL,
		})
	}
	return MsgStatsReply, EncodeStats(nil, st)
}

// processBatch applies one (possibly sequenced) event batch. Sequenced
// batches hold the session mutex across the dedup check and the applies, so
// a resend racing the original's in-flight application serializes behind it
// and then deduplicates.
func (s *Server) processBatch(cs *connScratch, sess *session, body []byte) (MsgType, []byte) {
	seq, n, rec, err := splitBatch(body)
	if err != nil {
		return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
	}
	// The body after its header is the batch's WAL record, byte for byte:
	// the catalog validates and decodes it here, outside its locks, and logs
	// it as received.
	if err := s.cat.DecodeRecord(&cs.batch, rec); err != nil {
		return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
	}
	if seq != 0 && sess != nil {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if seq <= sess.lastSeq {
			return MsgAck, EncodeAck(nil, 0) // duplicate resend: already applied
		}
		if seq > sess.lastSeq+1 {
			return MsgError, EncodeError(nil, CodeSeqGap,
				fmt.Sprintf("batch seq %d after %d", seq, sess.lastSeq))
		}
	}
	// Hand the decoded batch to the catalog's ingest: one WAL append, then a
	// fan-out of the rows to every registered query's executors through
	// their native row paths, with results bit-identical to per-event Apply.
	if err := s.cat.ApplyRecord(&cs.batch); err != nil {
		return errReply(err)
	}
	if seq != 0 && sess != nil {
		sess.lastSeq = seq
	}
	cs.body = EncodeAck(cs.body[:0], n)
	return MsgAck, cs.body
}

// errReply maps a service error onto a typed reply.
func errReply(err error) (MsgType, []byte) {
	switch {
	case errors.Is(err, serve.ErrClosed), errors.Is(err, catalog.ErrClosed):
		return MsgError, EncodeError(nil, CodeClosed, "")
	case errors.Is(err, catalog.ErrUnknownQuery), errors.Is(err, catalog.ErrNotDurable), errors.Is(err, engine.ErrBadEvent):
		return MsgError, EncodeError(nil, CodeBadRequest, err.Error())
	case errors.Is(err, io.EOF):
		return MsgError, EncodeError(nil, CodeInternal, "unexpected EOF")
	default:
		return MsgError, EncodeError(nil, CodeInternal, err.Error())
	}
}
