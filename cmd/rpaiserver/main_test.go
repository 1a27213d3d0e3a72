package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

const vwapSQL = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`

// TestBoot pins the daemon's one boot path: a fresh directory starts a
// catalog, a second boot recovers it without registering the same query
// twice, -replica follows it read-only, a directory in the retired
// single-query layout is refused by name instead of gaining a catalog
// generation beside its files, and a negative -batch is refused at boot —
// with nothing to register, before the data directory is created.
func TestBoot(t *testing.T) {
	dir := t.TempDir()
	opt := catalog.Options{PartitionBy: []string{"sym"}, Dir: dir}
	for boots := 0; boots < 2; boots++ {
		cat, err := boot(opt, false, 0, []string{vwapSQL})
		if err != nil {
			t.Fatal(err)
		}
		if list := cat.List(); len(list) != 1 || list[0].ID != 1 {
			t.Fatalf("boot %d serves %v", boots, list)
		}
		if boots == 1 {
			fol, err := boot(catalog.Options{Dir: dir}, true, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !fol.ReadOnly() || fol.Len() != 1 {
				t.Fatalf("follower: read-only %v, %d queries", fol.ReadOnly(), fol.Len())
			}
			fol.Close()
		}
		if err := cat.Close(); err != nil {
			t.Fatal(err)
		}
	}

	legacy := t.TempDir()
	if err := checkpoint.WriteManifest(legacy, checkpoint.Manifest{Gen: 1, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := boot(catalog.Options{PartitionBy: []string{"sym"}, Dir: legacy}, false, 0, []string{vwapSQL}); err == nil ||
		!strings.Contains(err.Error(), "single-query data directory") {
		t.Fatalf("boot over a single-query directory = %v, want a refusal naming the format", err)
	}

	fresh := filepath.Join(t.TempDir(), "fresh")
	if _, err := boot(catalog.Options{PartitionBy: []string{"sym"}, Dir: fresh, BatchSize: -1}, false, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "BatchSize") {
		t.Fatalf("boot with -batch -1 = %v, want a refusal naming BatchSize", err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused boot touched its data dir (stat: %v)", err)
	}
}

// TestMain lets the test binary stand in for the daemon: re-executed with
// daemonEnv set, it runs main() on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

const daemonEnv = "RPAISERVER_TEST_DAEMON"

// outBuf collects a child's output; the pipe reader appends while a failing
// test prints it.
type outBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (o *outBuf) add(line string) {
	o.mu.Lock()
	o.b.WriteString(line + "\n")
	o.mu.Unlock()
}

func (o *outBuf) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// daemon is one rpaiserver child process.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	out  *outBuf
	addr string
}

// startDaemon boots a child on a free loopback port and waits for it to
// listen.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, out: &outBuf{}}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = d.cmd.Stdout // one pipe, one reader
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		d.out.add(line)
		if _, a, ok := strings.Cut(line, "listening on "); ok {
			d.addr = a
			break
		}
	}
	if d.addr == "" {
		d.cmd.Wait()
		t.Fatalf("daemon %v never listened:\n%s", args, d.out)
	}
	go func() { // keep draining so the child never blocks on a full pipe
		for sc.Scan() {
			d.out.add(sc.Text())
		}
	}()
	return d
}

func (d *daemon) dial() *client.Client {
	d.t.Helper()
	c, err := client.Dial(d.addr, client.Options{})
	if err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(func() { c.Close() })
	return c
}

// term sends SIGTERM and requires the graceful path: drain, exit status 0.
func (d *daemon) term() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("daemon did not shut down cleanly: %v\n%s", err, d.out)
	}
}

// TestDaemon is the boot smoke, end to end on real processes: the daemon
// started three ways — -register once, -register twice, and -replica on the
// second one's data directory — answers a read each; -compact-every rotates
// generations; SIGTERM drains and exits 0; and a restart on the same -data
// recovers the answer without registering the query twice.
func TestDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const eqSQL = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.5 * (SELECT SUM(b1.volume) FROM bids b1)
    = (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price = b.price)`
	feed := func(c *client.Client, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			ev := engine.Insert(query.Tuple{"sym": float64(i % 7), "price": float64(i%29 + 1), "volume": float64(i%13 + 1)})
			if err := c.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	// One query, durable, auto-compacting.
	dirA := t.TempDir()
	argsA := []string{"-partition", "sym", "-data", dirA, "-compact-every", "300", "-register", vwapSQL}
	a := startDaemon(t, argsA...)
	ca := a.dial()
	feed(ca, 0, 2000)
	want, err := ca.ResultQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("the trace leaves the query at 0; the smoke could not tell recovery from an empty catalog")
	}
	if _, err := os.Stat(filepath.Join(dirA, "g1-shard-0.wal")); !os.IsNotExist(err) {
		t.Fatalf("-compact-every never rotated generation 1 away (stat: %v)", err)
	}
	ca.Close()
	a.term()
	a = startDaemon(t, argsA...)
	ca = a.dial()
	if got, err := ca.ResultQuery(1); err != nil || got != want {
		t.Fatalf("after restart Result = %v (%v), want %v\n%s", got, err, want, a.out)
	}
	if list, err := ca.ListQueries(); err != nil || len(list) != 1 {
		t.Fatalf("after restart the catalog lists %d queries (%v), want the one recovered", len(list), err)
	}

	// Two queries, durable; a follower on their directory.
	dirB := t.TempDir()
	b := startDaemon(t, "-partition", "sym", "-shards", "2", "-data", dirB, "-register", vwapSQL, "-register", eqSQL)
	cb := b.dial()
	feed(cb, 0, 1500)
	wantB, err := cb.ResultQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	r := startDaemon(t, "-replica", dirB, "-replica-poll", "1ms")
	cr := r.dial()
	if got, err := cr.ResultQuery(2); err != nil || got != wantB {
		t.Fatalf("follower ResultQuery(2) = %v (%v), want %v", got, err, wantB)
	}
	feed(cb, 1500, 1800) // the follower keeps up with what arrives after its boot
	if wantB, err = cb.ResultQuery(2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := cr.ResultQuery(2)
		if err == nil && got == wantB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %v (%v), primary at %v", got, err, wantB)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cr.Register(vwapSQL); !errors.Is(err, wire.ErrReadOnly) {
		t.Fatalf("follower accepted a registration: %v", err)
	}
	cr.Close()
	cb.Close()
	ca.Close()
	r.term()
	b.term()
	a.term()
}
