package client_test

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/serve"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

func groupsIdentical(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) {
			return false
		}
		for j := range a[i].Key {
			if math.Float64bits(a[i].Key[j]) != math.Float64bits(b[i].Key[j]) {
				return false
			}
		}
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// viewConsumer folds a subscription's frames into a View on a background
// goroutine, recording the first application error.
type viewConsumer struct {
	view *serve.View
	done chan struct{}
	mu   sync.Mutex
	err  error
}

func consume(sub *client.Subscription) *viewConsumer {
	vc := &viewConsumer{view: serve.NewView(), done: make(chan struct{})}
	go func() {
		defer close(vc.done)
		for f := range sub.Frames() {
			if err := vc.view.Apply(f); err != nil {
				vc.mu.Lock()
				if vc.err == nil {
					vc.err = err
				}
				vc.mu.Unlock()
			}
		}
	}()
	return vc
}

func (vc *viewConsumer) Err() error {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.err
}

// waitCaughtUp polls until the consumer's view reaches every shard version in
// target.
func (vc *viewConsumer) waitCaughtUp(t *testing.T, target []serve.ShardVersion, what string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := make(map[int]uint64)
		for _, sv := range vc.view.Versions() {
			got[sv.Shard] = sv.Version
		}
		ok := true
		for _, sv := range target {
			if got[sv.Shard] < sv.Version {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if err := vc.Err(); err != nil {
			t.Fatalf("%s: view apply failed: %v", what, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: view never caught up: at %v, want %v", what, vc.view.Versions(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientSubscribeDifferential is the client half of the subscription
// proof under chaos: a proxy kills every connection repeatedly while events
// stream in, the subscription reconnects and resumes (or reseeds), and the
// consumer's reconstructed view must end bit-identical to the server's
// grouped results.
func TestClientSubscribeDifferential(t *testing.T) {
	addr, svc := startServer(t, 2, wire.ServerConfig{})
	proxy := startProxy(t, addr)
	events := symEvents(29, 4000, 13)

	c, err := client.Dial(proxy.Addr(), client.Options{
		BatchSize:     32,
		FlushInterval: time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.SubscribeQuery(1, client.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	vc := consume(sub)

	for i, e := range events {
		if i > 0 && i%1000 == 0 {
			proxy.KillAll() // severs the push connection too
		}
		if err := c.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	vc.waitCaughtUp(t, svc.ShardVersions(), "post-chaos")
	if err := vc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription parked a permanent error: %v", err)
	}
	if got, want := vc.view.Grouped(), svc.ResultGrouped(); !groupsIdentical(got, want) {
		t.Fatalf("subscriber view diverged from server:\n got %v\nwant %v", got, want)
	}
	if proxy.kills.Load() < 3 {
		t.Fatalf("only %d kills fired; trace too short to exercise resume", proxy.kills.Load())
	}

	// Close ends the stream cleanly.
	sub.Close()
	select {
	case <-vc.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Frames did not close after subscription Close")
	}
}

// TestClientSubscribeClientClose pins that closing the client ends its
// subscriptions.
func TestClientSubscribeClientClose(t *testing.T) {
	addr, _ := startServer(t, 1, wire.ServerConfig{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.SubscribeQuery(1, client.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vc := consume(sub)
	c.Close()
	select {
	case <-vc.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Frames did not close after client Close")
	}
	if _, err := c.SubscribeQuery(1, client.SubOptions{}); err == nil {
		t.Fatal("Subscribe after Close succeeded")
	}
}

// TestClientSubscribeFollower subscribes, over the wire, to a read-only
// follower while the primary ingests and rotates generations under it. Each
// rotation makes the follower rebuild its executor sets, which ends the push
// connection; the subscription reconnects, is reseeded with Full frames under
// the new epoch, and the one View the consumer has kept all along must still
// converge bit for bit on the primary's grouped results. Writes through the
// same client are refused with ErrReadOnly.
func TestClientSubscribeFollower(t *testing.T) {
	dir := t.TempDir()
	primary, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, _, err := primary.Register(catSQLVWAP); err != nil {
		t.Fatal(err)
	}
	fol, err := catalog.Follow(catalog.Options{Dir: dir, Shards: 2}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewCatalogServer(fol, wire.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
		fol.Close()
	}()

	c, err := client.Dial(ln.Addr().String(), client.Options{BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.SubscribeQuery(1, client.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	vc := consume(sub)

	events := symEvents(41, 3000, 11)
	for i := 0; i < len(events); i += 500 {
		for j := i; j < i+500; j += 50 {
			if err := primary.ApplyBatch(events[j : j+50]); err != nil {
				t.Fatal(err)
			}
		}
		if err := primary.DrainAll(); err != nil {
			t.Fatal(err)
		}
		want, err := primary.ResultGrouped(1)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for !groupsIdentical(vc.view.Grouped(), want) {
			if err := vc.Err(); err != nil {
				t.Fatalf("after %d events: view apply failed: %v", i+500, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("after %d events: subscriber view never converged on the primary", i+500)
			}
			time.Sleep(time.Millisecond)
		}
		if err := primary.Checkpoint(); err != nil { // the follower rebuilds; the push connection drops
			t.Fatal(err)
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription parked a permanent error: %v", err)
	}
	if err := c.Apply(events[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); !errors.Is(err, wire.ErrReadOnly) {
		t.Fatalf("write through a follower's server = %v, want ErrReadOnly", err)
	}
}
