package client

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/serve"
	"rpai/internal/wire"
)

// SubOptions parameterizes Client.SubscribeQuery.
type SubOptions struct {
	// Keys, when non-empty, restricts the subscription to those partition
	// keys; delta frames carry only matching groups. Empty subscribes to all.
	Keys [][]float64
	// Buffer is the local delivery channel capacity (default 16). A full
	// channel stalls the subscription's socket read, which pushes
	// backpressure to the server, which coalesces — the newest version is
	// never dropped anywhere along the chain.
	Buffer int
}

// Subscription is a server-pushed stream of one registered query's
// grouped-result delta frames. It rides its own dedicated connection — the
// pool's connections are strictly request-reply and cannot carry pushes — and
// survives connection loss by reconnecting with backoff and resuming from the
// last received per-shard versions. When the server can honor the resume the
// stream continues incrementally; when it cannot (server restarted,
// subscriber too far behind a state change) the next frames are Full
// reseeds. Either way a consumer applying every frame to a serve.View
// converges bit-identically on the server's grouped results.
type Subscription struct {
	c   *Client
	opt SubOptions
	qid catalog.QueryID

	frames  chan serve.DeltaFrame
	session [wire.SessionIDLen]byte

	quit      chan struct{}
	closeOnce sync.Once
	done      chan struct{}

	mu       sync.Mutex
	err      error
	epoch    uint64
	versions map[int]uint64
}

// SubscribeQuery opens a push subscription to one registered catalog query's
// grouped results. The first frames seed the subscriber with each shard's
// full state; every later server-side publication arrives as a coalesced
// delta. The returned subscription must be Closed when done; closing the
// client also ends it.
func (c *Client) SubscribeQuery(id catalog.QueryID, opt SubOptions) (*Subscription, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	buf := opt.Buffer
	if buf <= 0 {
		buf = 16
	}
	sub := &Subscription{
		c:      c,
		opt:    opt,
		qid:    id,
		frames: make(chan serve.DeltaFrame, buf),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if _, err := rand.Read(sub.session[:]); err != nil {
		copy(sub.session[:], time.Now().Format("150405.000000000"))
	}
	// The first attach happens synchronously so a server that permanently
	// refuses subscriptions (old protocol, bad keys) fails SubscribeQuery itself
	// instead of parking a sticky error.
	nc, br, err := sub.attach()
	if err != nil {
		return nil, err
	}
	go sub.run(nc, br)
	return sub, nil
}

// Frames delivers the pushed delta frames. It closes once the subscription
// is Closed, the client is closed, or a permanent failure is parked in Err.
func (sub *Subscription) Frames() <-chan serve.DeltaFrame { return sub.frames }

// Err returns the permanent failure that ended the subscription, if any.
func (sub *Subscription) Err() error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.err
}

// Close ends the subscription and closes Frames. Idempotent.
func (sub *Subscription) Close() error {
	sub.closeOnce.Do(func() { close(sub.quit) })
	<-sub.done
	return nil
}

func (sub *Subscription) setErr(err error) {
	sub.mu.Lock()
	if sub.err == nil {
		sub.err = err
	}
	sub.mu.Unlock()
}

// resumeState snapshots the coordinates the next attach resumes from.
func (sub *Subscription) resumeState() (uint64, []serve.ShardVersion) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	rs := make([]serve.ShardVersion, 0, len(sub.versions))
	for shard, v := range sub.versions {
		rs = append(rs, serve.ShardVersion{Shard: shard, Version: v})
	}
	return sub.epoch, rs
}

// record notes one received frame's coordinates for later resumes.
func (sub *Subscription) record(f serve.DeltaFrame) {
	sub.mu.Lock()
	if sub.versions == nil {
		sub.versions = make(map[int]uint64)
	}
	sub.versions[f.Shard] = f.Version
	sub.mu.Unlock()
}

// attach dials a fresh connection and registers the subscription, resuming
// from the last received versions.
func (sub *Subscription) attach() (net.Conn, *bufio.Reader, error) {
	nc, br, err := dialHandshake(sub.c.addr, sub.c.opt, sub.session)
	if err != nil {
		return nil, nil, err
	}
	epoch, rs := sub.resumeState()
	body := wire.EncodeSubscribeQ(nil, sub.qid, wire.Subscribe{Keys: sub.opt.Keys, Epoch: epoch, Resume: rs})
	nc.SetDeadline(time.Now().Add(sub.c.opt.RequestTimeout))
	if err := wire.WriteFrame(nc, wire.EncodeMsg(nil, wire.MsgSubscribeQ, 1, body)); err != nil {
		nc.Close()
		return nil, nil, err
	}
	payload, err := wire.ReadFrame(br, sub.c.opt.MaxFrame)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	t, _, rbody, err := wire.DecodeMsg(payload)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	switch t {
	case wire.MsgSubscribed:
		ack, err := wire.DecodeSubscribed(rbody)
		if err != nil {
			nc.Close()
			return nil, nil, err
		}
		sub.mu.Lock()
		if ack.Epoch != sub.epoch {
			// A new epoch voids the old resume coordinates; the server is
			// about to reseed every shard with Full frames.
			sub.epoch = ack.Epoch
			sub.versions = nil
		}
		sub.mu.Unlock()
	case wire.MsgError:
		code, msg, derr := wire.DecodeError(rbody)
		nc.Close()
		if derr != nil {
			return nil, nil, derr
		}
		return nil, nil, code.Err(msg)
	default:
		nc.Close()
		return nil, nil, fmt.Errorf("wire client: unexpected subscribe reply %s", t)
	}
	// Pushes arrive whenever the server publishes; no read deadline.
	nc.SetDeadline(time.Time{})
	return nc, br, nil
}

// permanentSubErr reports failures not worth a reconnect.
func permanentSubErr(err error) bool {
	return errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrBadRequest)
}

// run owns the subscription across reconnects.
func (sub *Subscription) run(nc net.Conn, br *bufio.Reader) {
	defer close(sub.done)
	defer close(sub.frames)
	backoff := sub.c.opt.BackoffBase
	for {
		if nc == nil {
			select {
			case <-sub.quit:
				return
			case <-sub.c.quit:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > sub.c.opt.BackoffMax {
				backoff = sub.c.opt.BackoffMax
			}
			var err error
			if nc, br, err = sub.attach(); err != nil {
				if permanentSubErr(err) {
					sub.setErr(err)
					return
				}
				nc = nil
				continue
			}
			backoff = sub.c.opt.BackoffBase
		}
		if !sub.stream(nc, br) {
			nc.Close()
			return
		}
		nc.Close()
		nc, br = nil, nil
	}
}

// stream reads pushed frames off one connection incarnation, delivering them
// in order. It returns true to reconnect after a transport failure, false on
// Close/client-close.
func (sub *Subscription) stream(nc net.Conn, br *bufio.Reader) bool {
	// A watcher unblocks the frame read when the subscription or the client
	// closes mid-stream.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-sub.quit:
			nc.Close()
		case <-sub.c.quit:
			nc.Close()
		case <-stop:
		}
	}()
	for {
		payload, err := wire.ReadFrame(br, sub.c.opt.MaxFrame)
		if err != nil {
			return !sub.closedNow()
		}
		t, _, body, err := wire.DecodeMsg(payload)
		if err != nil {
			return !sub.closedNow()
		}
		switch t {
		case wire.MsgDeltaQ:
			qid, f, err := wire.DecodeDeltaQ(body)
			if err != nil || qid != sub.qid {
				return !sub.closedNow() // corrupt or misrouted push: resync
			}
			sub.record(f)
			select {
			case sub.frames <- f:
			case <-sub.quit:
				return false
			case <-sub.c.quit:
				return false
			}
		case wire.MsgError:
			code, msg, derr := wire.DecodeError(body)
			if derr != nil || code.Transient() {
				return !sub.closedNow()
			}
			sub.setErr(code.Err(msg))
			return false
		default:
			return !sub.closedNow() // protocol violation: resync
		}
	}
}

func (sub *Subscription) closedNow() bool {
	select {
	case <-sub.quit:
		return true
	default:
	}
	select {
	case <-sub.c.quit:
		return true
	default:
	}
	return false
}
