// Command rpaiserver is the network daemon of the serving layer: it hosts a
// catalog of nested-aggregate queries (internal/catalog), maintains each
// incrementally per partition over one shared ingest stream, and speaks the
// wire protocol of internal/wire over TCP — batched applies with exactly-once
// sessions, drain barriers, runtime registration and EXPLAIN, scalar and
// grouped reads, push subscriptions, stats, and checkpoint triggers.
//
// Queries are registered at boot with -register (repeatable) and at runtime
// by clients; every read and subscription names its query by QueryID (boot
// registrations take 1, 2, ... in flag order on a fresh directory).
//
// With -data the catalog is durable: registrations persist in a manifest,
// every applied batch is logged once to a shared WAL however many queries are
// registered, checkpoints (and -compact-every) rotate generations, and a
// restart recovers every query from the directory before accepting
// connections.
//
// With -replica the daemon is a read-only follower instead: it restores from
// the primary's data directory, tails the primary's WAL applying batches as
// they land, follows its rotations and runtime registrations, and serves
// reads and subscriptions while refusing every write with CodeReadOnly. The
// queries and partition columns come from the primary's manifest. The
// directory must be shared with (or mirrored from) the primary.
//
// Usage:
//
//	rpaiserver -addr :7411 -partition sym -data /var/lib/rpai \
//	  -register "SELECT Sum(b.price * b.volume) FROM bids b WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1) < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
//
//	rpaiserver -addr :7412 -partition sym -data /var/lib/rpai2 \
//	  -register "SELECT ..." -register "SELECT ..."
//
//	rpaiserver -addr :7413 -replica /var/lib/rpai2
//
// Clients connect with internal/wire/client, or any implementation of the
// framing in DESIGN.md section 5d.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/sqlparse"
	"rpai/internal/wire"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7411", "TCP listen address")
		partition    = flag.String("partition", "", "comma-separated partition key columns (required unless -replica)")
		shards       = flag.Int("shards", 0, "shard worker count (0: serve default)")
		queueLen     = flag.Int("queue", 0, "per-shard queue length (0: serve default)")
		batch        = flag.Int("batch", 0, "per-shard group-commit bound: events a shard drains into one commit (0: serve default, 4096)")
		dataDir      = flag.String("data", "", "checkpoint/WAL directory; enables durability and boot-time recovery")
		replicaDir   = flag.String("replica", "", "serve as a read-only follower of this primary data directory")
		replicaPoll  = flag.Duration("replica-poll", 0, "follower WAL tail polling interval (0: catalog default)")
		compactEvery = flag.Int("compact-every", 0, "rotate a checkpoint generation after this many logged events (0: off; needs -data)")
		maxInFlight  = flag.Int("max-inflight", 0, "admission limit for in-flight work requests (0: wire default)")
		perConn      = flag.Int("per-conn", 0, "pipelined requests buffered per connection (0: wire default)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "per-frame read deadline (0: wire default; negative: off)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty: off)")
	)
	var registers multiFlag
	flag.Var(&registers, "register", "register this SQL query at boot (repeatable)")
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			// The default mux already carries the /debug/pprof handlers via
			// the side-effect import. Failure to bind is non-fatal: profiling
			// is diagnostics, not service.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rpaiserver: pprof:", err)
			}
		}()
	}

	var partitionBy []string
	for _, c := range strings.Split(*partition, ",") {
		if c = strings.TrimSpace(c); c != "" {
			partitionBy = append(partitionBy, c)
		}
	}
	opt := catalog.Options{
		PartitionBy:  partitionBy,
		Shards:       *shards,
		QueueLen:     *queueLen,
		BatchSize:    *batch,
		Dir:          *dataDir,
		CompactEvery: *compactEvery,
	}
	if *replicaDir != "" {
		if *dataDir != "" || *compactEvery != 0 || len(registers) > 0 {
			usage("-replica follows the primary's directory, log and queries; it excludes -data, -compact-every and -register")
		}
		opt.Dir = *replicaDir
	} else if len(partitionBy) == 0 {
		usage("-partition is required (e.g. -partition sym)")
	}

	cat, err := boot(opt, *replicaDir != "", *replicaPoll, registers)
	if err != nil {
		fatal(err)
	}
	srv := wire.NewCatalogServer(cat, wire.ServerConfig{
		MaxInFlight:  *maxInFlight,
		PerConnQueue: *perConn,
		IdleTimeout:  *idleTimeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rpaiserver: serving %d queries\n  %d shards, listening on %s\n", cat.Len(), cat.Shards(), ln.Addr())

	// Graceful shutdown: stop the front door first (in-flight replies still
	// flush), then drain the executor sets and close the catalog, which
	// flushes the WAL.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Printf("rpaiserver: %v, shutting down\n", sig)
		srv.Close()
		if err := <-done; err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		fatal(err)
	}
	// On a follower Close reports the error that stopped its tailer, if any.
	if err := cat.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("rpaiserver: clean shutdown")
}

// boot opens the daemon's catalog, the one way there is: follow a primary's
// directory, or recover opt.Dir when it holds a CATALOG manifest, or start
// fresh (catalog.New refuses a directory written in a retired format rather
// than starting a generation beside its files) — then register the boot
// queries the catalog does not already serve.
func boot(opt catalog.Options, replica bool, poll time.Duration, registers []string) (*catalog.Service, error) {
	if replica {
		cat, err := catalog.Follow(opt, poll)
		if err != nil {
			return nil, fmt.Errorf("following %s: %w", opt.Dir, err)
		}
		st := cat.Recovery()
		fmt.Printf("rpaiserver: read-only follower of %s (%d queries): restore %.1fms, replay %.1fms (%d records, %d events, %d flushes)\n",
			opt.Dir, cat.Len(), ms(st.Restore), ms(st.Replay), st.Records, st.Events, st.Flushes)
		return cat, nil
	}
	var cat *catalog.Service
	var err error
	if _, serr := os.Stat(filepath.Join(opt.Dir, "CATALOG")); opt.Dir != "" && serr == nil {
		if cat, err = catalog.Recover(opt); err == nil {
			st := cat.Recovery()
			fmt.Printf("rpaiserver: recovered catalog from %s (%d queries): restore %.1fms, replay %.1fms (%d records, %d events, %d flushes), rotate %.1fms\n",
				opt.Dir, cat.Len(), ms(st.Restore), ms(st.Replay), st.Records, st.Events, st.Flushes, ms(st.Rotate))
		}
	} else {
		cat, err = catalog.New(opt)
	}
	if err != nil {
		return nil, err
	}
	// Boot registrations are idempotent across restarts: a query whose
	// canonical form is already in the recovered manifest is kept, not
	// registered again as a duplicate.
	have := make(map[string]catalog.QueryID)
	for _, ex := range cat.List() {
		have[ex.Canonical] = ex.ID
	}
	for _, sql := range registers {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			cat.Close()
			return nil, fmt.Errorf("registering %q: %w", sql, err)
		}
		if id, ok := have[q.String()]; ok {
			fmt.Printf("rpaiserver: query %d already registered (recovered)\n", id)
			continue
		}
		id, ex, err := cat.Register(sql)
		if err != nil {
			cat.Close()
			return nil, fmt.Errorf("registering %q: %w", sql, err)
		}
		have[ex.Canonical] = id
		shared := ""
		if len(ex.SharedWith) > 0 {
			shared = fmt.Sprintf(", sharing indexes with %v", ex.SharedWith)
		}
		fmt.Printf("rpaiserver: query %d registered (%s/%s%s)\n", id, ex.Strategy, ex.IndexKind, shared)
	}
	return cat, nil
}

// ms renders d in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "rpaiserver:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpaiserver:", err)
	os.Exit(1)
}
