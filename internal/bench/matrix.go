package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

// MatrixConfig parameterizes the multicore scaling matrix: the same
// partitioned VWAP workload driven through the full stack — in-process serve
// ingest, loopback wire ingest, and subscription fan-out — at every
// combination of core count (runtime.GOMAXPROCS), shard count, batch size
// and client connection count. Each cell is repeated Iters times after
// Warmup un-timed runs and records its elapsed-time distribution, so two
// matrix runs on the same host are comparable with `rpaibench -compare`.
type MatrixConfig struct {
	Events     int `json:"events"`     // trace length per cell
	Partitions int `json:"partitions"` // distinct partition keys
	// Cores are the GOMAXPROCS values to sweep; 0 means "all" and resolves
	// to runtime.NumCPU(). Duplicates after resolution collapse.
	Cores []int `json:"cores"`
	// Shards and BatchSizes shape the serve-mode cells (cores x shards x
	// batch sizes); serve cells ingest with one producer goroutine per core.
	Shards     []int `json:"shards"`
	BatchSizes []int `json:"batch_sizes"`
	// Conns are the wire-mode client pool sizes (cores x conns cells).
	Conns []int `json:"conns"`
	// Readers is the subscriber count of the fan-out cells (one per core
	// count); 0 skips fan-out.
	Readers  int   `json:"readers"`
	QueueLen int   `json:"queue_len"`
	Iters    int   `json:"iters"`
	Warmup   int   `json:"warmup"`
	Seed     int64 `json:"seed"`
}

// DefaultMatrix returns the scales used for BENCH_matrix.json.
func DefaultMatrix() MatrixConfig {
	return MatrixConfig{
		Events:     100000,
		Partitions: 1024,
		Cores:      []int{1, 2, 4, 0},
		Shards:     []int{1, 4},
		BatchSizes: []int{64, 512},
		Conns:      []int{1, 4},
		Readers:    16,
		QueueLen:   8192,
		Iters:      3,
		Warmup:     1,
		Seed:       1,
	}
}

// QuickMatrix shrinks the matrix for the CI smoke run: one cell per mode at
// 1 and 2 cores, one timed iteration, no warm-up.
func QuickMatrix() MatrixConfig {
	return MatrixConfig{
		Events:     8000,
		Partitions: 128,
		Cores:      []int{1, 2},
		Shards:     []int{2},
		BatchSizes: []int{64},
		Conns:      []int{2},
		Readers:    4,
		QueueLen:   4096,
		Iters:      1,
		Warmup:     0,
		Seed:       1,
	}
}

// MatrixCell is one measured cell of the matrix. Mode selects which knobs
// apply: "serve" uses Shards/Batch/Producers, "wire" uses Conns, "fanout"
// uses Readers. GoMaxProcs is the value observed inside the timed run — the
// proof the runner actually pinned the core count it reports.
type MatrixCell struct {
	Mode         string  `json:"mode"`
	Cores        int     `json:"cores"` // requested GOMAXPROCS (resolved, never 0)
	GoMaxProcs   int     `json:"gomaxprocs"`
	Shards       int     `json:"shards,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	Producers    int     `json:"producers,omitempty"`
	Conns        int     `json:"conns,omitempty"`
	Readers      int     `json:"readers,omitempty"`
	Events       int     `json:"events"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is throughput relative to the cell with the same mode and
	// knobs at the first core count of the sweep.
	Speedup     float64 `json:"speedup"`
	ElapsedDist Dist    `json:"elapsed_dist"`
	// Result is the drained final output, cross-checked for exact equality
	// against the sequential single-shard reference before Matrix returns.
	Result float64 `json:"result"`
}

// MatrixReport is the full experiment output serialized to BENCH_matrix.json.
type MatrixReport struct {
	Header
	Config MatrixConfig `json:"config"`
	Cells  []MatrixCell `json:"cells"`
}

// resolveCores maps the configured core list to concrete GOMAXPROCS values
// (0 -> NumCPU) and collapses duplicates, preserving order.
func resolveCores(cores []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range cores {
		if c <= 0 {
			c = runtime.NumCPU()
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{runtime.NumCPU()}
	}
	return out
}

// Matrix runs the full sweep. Every cell's drained result must equal the
// sequential single-shard reference exactly (the workload is integer-valued,
// so equality is bit-for-bit); divergence is an error, making every matrix
// run a parallel-ingest differential test as a side effect.
func Matrix(cfg MatrixConfig) (*MatrixReport, error) {
	if cfg.Events <= 0 {
		cfg = DefaultMatrix()
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	cores := resolveCores(cfg.Cores)
	rep := &MatrixReport{Header: NewHeader("matrix", cfg.Iters), Config: cfg}
	events := vwapEvents(cfg.Seed, cfg.Events, cfg.Partitions)

	// Sequential single-shard reference for the bit-identity checks.
	wantScalar, wantGroups, err := matrixReference(events)
	if err != nil {
		return nil, err
	}

	// Serve mode: cores x shards x batch sizes, one producer per core.
	for _, shards := range cfg.Shards {
		for _, batch := range cfg.BatchSizes {
			for i, c := range cores {
				cell, err := matrixCell(rep, cores[0], i == 0, MatrixCell{
					Mode: "serve", Cores: c, Shards: shards, Batch: batch, Producers: c,
				}, cfg, func() (float64, float64, error) {
					return matrixServeRun(events, cfg, shards, batch, c)
				}, wantScalar)
				if err != nil {
					return nil, err
				}
				rep.Cells = append(rep.Cells, *cell)
			}
		}
	}

	// Wire mode: cores x client pool sizes over loopback TCP.
	netShards := maxInt(cfg.Shards)
	for _, conns := range cfg.Conns {
		for i, c := range cores {
			conns := conns
			cell, err := matrixCell(rep, cores[0], i == 0, MatrixCell{
				Mode: "wire", Cores: c, Conns: conns, Shards: netShards,
			}, cfg, func() (float64, float64, error) {
				return matrixWireRun(events, netShards, conns, wantGroups)
			}, wantScalar)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
		}
	}

	// Fan-out mode: one cell per core count at a fixed reader population.
	if cfg.Readers > 0 {
		for i, c := range cores {
			cell, err := matrixCell(rep, cores[0], i == 0, MatrixCell{
				Mode: "fanout", Cores: c, Readers: cfg.Readers, Shards: netShards,
			}, cfg, func() (float64, float64, error) {
				// The cell's elapsed is until every subscriber view caught
				// up; its "result" is the push-identity check (the run fails
				// on divergence), so reuse the scalar reference.
				ms, err := matrixFanoutRun(events, netShards, cfg.Readers)
				return ms, wantScalar, err
			}, wantScalar)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
		}
	}
	return rep, nil
}

// matrixCell measures one cell: GOMAXPROCS pinned to cell.Cores, Warmup
// un-timed runs, Iters timed runs summarized into the cell's distribution,
// and the result cross-checked against the reference. baseline cells (first
// core count) anchor the speedup of the cells sharing their knobs.
func matrixCell(rep *MatrixReport, baseCores int, isBase bool, cell MatrixCell,
	cfg MatrixConfig, run func() (float64, float64, error), want float64) (*MatrixCell, error) {
	cell.Events = cfg.Events
	var res float64
	err := withMaxProcs(cell.Cores, func() error {
		cell.GoMaxProcs = runtime.GOMAXPROCS(0)
		dist, err := measure(cfg.Warmup, cfg.Iters, func() (float64, error) {
			ms, r, err := run()
			res = r
			return ms, err
		})
		if err != nil {
			return err
		}
		cell.ElapsedDist = dist
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: matrix %s cell (cores=%d shards=%d batch=%d conns=%d): %w",
			cell.Mode, cell.Cores, cell.Shards, cell.Batch, cell.Conns, err)
	}
	if math.Float64bits(res) != math.Float64bits(want) {
		return nil, fmt.Errorf("bench: matrix %s cell (cores=%d shards=%d batch=%d conns=%d) diverged: %g vs reference %g",
			cell.Mode, cell.Cores, cell.Shards, cell.Batch, cell.Conns, res, want)
	}
	cell.Result = res
	cell.ElapsedMS = cell.ElapsedDist.Mean
	if cell.ElapsedMS > 0 {
		cell.EventsPerSec = float64(cfg.Events) / (cell.ElapsedMS / 1e3)
	}
	if isBase {
		cell.Speedup = 1
	} else if base := findBase(rep.Cells, cell, baseCores); base != nil && base.EventsPerSec > 0 {
		cell.Speedup = cell.EventsPerSec / base.EventsPerSec
	}
	return &cell, nil
}

// findBase locates the cell with the same mode and knobs at the sweep's
// first core count.
func findBase(cells []MatrixCell, c MatrixCell, baseCores int) *MatrixCell {
	for i := range cells {
		b := &cells[i]
		if b.Mode == c.Mode && b.Cores == baseCores &&
			b.Shards == c.Shards && b.Batch == c.Batch &&
			b.Conns == c.Conns && b.Readers == c.Readers {
			return b
		}
	}
	return nil
}

// matrixReference replays the trace sequentially through a single-shard
// service: the ground truth every matrix cell must reproduce bit for bit.
func matrixReference(events []engine.Event) (float64, []engine.GroupResult, error) {
	svc, err := serve.ForQuery(vwapQuery(), []string{"sym"}, serve.Options{Shards: 1})
	if err != nil {
		return 0, nil, err
	}
	defer svc.Close()
	for _, e := range events {
		if err := svc.Apply(e); err != nil {
			return 0, nil, err
		}
	}
	if err := svc.Drain(); err != nil {
		return 0, nil, err
	}
	return svc.Result(), svc.ResultGrouped(), nil
}

// matrixServeRun is one serve-mode repetition: a fresh service ingested by
// `producers` goroutines, each applying its partition-disjoint slice of the
// trace in ApplyBatch chunks of `batch`. Events are split by partition-key
// hash, so per-partition order is preserved and the drained result is
// bit-identical to the sequential replay.
func matrixServeRun(events []engine.Event, cfg MatrixConfig, shards, batch, producers int) (float64, float64, error) {
	svc, err := serve.ForQuery(vwapQuery(), []string{"sym"},
		serve.Options{Shards: shards, BatchSize: batch, QueueLen: cfg.QueueLen})
	if err != nil {
		return 0, 0, err
	}
	defer svc.Close()
	if producers < 1 {
		producers = 1
	}
	slices := make([][]engine.Event, producers)
	if producers == 1 {
		slices[0] = events
	} else {
		for _, e := range events {
			p := int(uint64(math.Float64bits(e.Tuple["sym"])) % uint64(producers))
			slices[p] = append(slices[p], e)
		}
	}
	errs := make([]error, producers)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			evs := slices[p]
			for off := 0; off < len(evs); off += batch {
				end := off + batch
				if end > len(evs) {
					end = len(evs)
				}
				if err := svc.ApplyBatch(evs[off:end]); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if err := svc.Drain(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	return float64(elapsed.Microseconds()) / 1e3, svc.Result(), nil
}

func maxInt(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// MatrixJSON serializes the report for BENCH_matrix.json.
func MatrixJSON(rep *MatrixReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatMatrix renders the report as an aligned text table.
func FormatMatrix(rep *MatrixReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "multicore scaling matrix (%d events, %d partitions, host %d CPUs, %d iters)\n",
		rep.Config.Events, rep.Config.Partitions, rep.Host.NumCPU, rep.Iterations)
	fmt.Fprintf(&b, "%-8s %6s %7s %6s %6s %8s %11s %13s %9s %8s\n",
		"mode", "cores", "shards", "batch", "conns", "readers", "elapsed", "events/sec", "speedup", "rsd%")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%-8s %6d %7d %6d %6d %8d %10.1fms %13.0f %8.2fx %7.1f\n",
			c.Mode, c.Cores, c.Shards, c.Batch, c.Conns, c.Readers,
			c.ElapsedMS, c.EventsPerSec, c.Speedup, c.ElapsedDist.RSD)
	}
	return b.String()
}

// vwapSQL is vwapQuery as the SQL a catalog registers.
const vwapSQL = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`

// vwapQuery is the Example 2.2 VWAP decile query, evaluated per partition by
// the serving layer.
func vwapQuery() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// vwapEvents generates the insert/delete trace over sym partitions.
func vwapEvents(seed int64, n, partitions int) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	out := make([]engine.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < 0.25 {
			j := rng.Intn(len(live))
			out = append(out, engine.Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"sym":    float64(rng.Intn(partitions)),
			"price":  float64(rng.Intn(64) + 1),
			"volume": float64(rng.Intn(32) + 1),
		}
		live = append(live, t)
		out = append(out, engine.Insert(t))
	}
	return out
}

// matrixServer boots a one-query catalog (what rpaiserver -query serves)
// behind a loopback wire server for one network-mode repetition.
func matrixServer(shards int) (cat *catalog.Service, addr string, stop func(), err error) {
	if cat, err = catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: shards}); err != nil {
		return nil, "", nil, err
	}
	if _, _, err = cat.Register(vwapSQL); err != nil {
		cat.Close()
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cat.Close()
		return nil, "", nil, err
	}
	srv := wire.NewCatalogServer(cat, wire.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return cat, ln.Addr().String(), func() {
		srv.Close()
		<-served
		cat.Close()
	}, nil
}

// matrixIngest streams the trace through a pooled, partition-routed client
// and drains, returning the elapsed milliseconds.
func matrixIngest(c *client.Client, events []engine.Event) (float64, error) {
	start := time.Now()
	for _, e := range events {
		if err := c.Apply(e); err != nil {
			return 0, err
		}
	}
	if err := c.Drain(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Microseconds()) / 1e3, nil
}

// matrixWireRun is one wire-mode repetition: a fresh server ingested over
// conns loopback connections, its networked reads checked against the
// sequential reference.
func matrixWireRun(events []engine.Event, shards, conns int, wantGroups []engine.GroupResult) (float64, float64, error) {
	_, addr, stop, err := matrixServer(shards)
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	c, err := client.Dial(addr, client.Options{
		Conns:       conns,
		BatchSize:   128,
		MaxInFlight: 32,
		Route:       func(e engine.Event) int { return int(e.Tuple["sym"]) },
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	ms, err := matrixIngest(c, events)
	if err != nil {
		return 0, 0, err
	}
	res, err := c.Result()
	if err != nil {
		return 0, 0, err
	}
	groups, err := c.ResultGrouped()
	if err != nil {
		return 0, 0, err
	}
	if !groupsBitIdentical(groups, wantGroups) {
		return 0, 0, fmt.Errorf("bench: networked grouped results diverged at %d conns", conns)
	}
	return ms, res, nil
}

// matrixFanoutRun is one fan-out repetition: readers push subscribers attach,
// the trace is ingested over one connection, and the clock stops when every
// subscriber's view has reached the server's final shard versions — at which
// point each view must equal the server's grouped results bit for bit.
func matrixFanoutRun(events []engine.Event, shards, readers int) (float64, error) {
	cat, addr, stop, err := matrixServer(shards)
	if err != nil {
		return 0, err
	}
	defer stop()
	c, err := client.Dial(addr, client.Options{
		BatchSize: 128,
		Route:     func(e engine.Event) int { return int(e.Tuple["sym"]) },
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	type reader struct {
		view *serve.View
		errc chan error // the first Apply error, or nil when Frames closes
	}
	subs := make([]reader, readers)
	for i := range subs {
		sub, err := c.Subscribe(client.SubOptions{Buffer: 256})
		if err != nil {
			return 0, err
		}
		defer sub.Close()
		r := reader{view: serve.NewView(), errc: make(chan error, 1)}
		subs[i] = r
		go func() {
			var first error
			for f := range sub.Frames() {
				if err := r.view.Apply(f); err != nil && first == nil {
					first = err
				}
			}
			r.errc <- first
		}()
	}

	start := time.Now()
	if _, err := matrixIngest(c, events); err != nil {
		return 0, err
	}
	target, err := cat.ShardVersions(1)
	if err != nil {
		return 0, err
	}
	deadline := start.Add(60 * time.Second)
	for _, r := range subs {
		for !viewReached(r.view, target) {
			select {
			case err := <-r.errc:
				return 0, fmt.Errorf("bench: subscriber stream ended early: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("bench: subscriber views never reached %v", target)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	ms := float64(time.Since(start).Microseconds()) / 1e3
	want, err := cat.ResultGrouped(1)
	if err != nil {
		return 0, err
	}
	for i, r := range subs {
		if !groupsBitIdentical(r.view.Grouped(), want) {
			return 0, fmt.Errorf("bench: subscriber %d view diverged from server results", i)
		}
	}
	return ms, nil
}

// viewReached reports whether the view is at or past every target version.
func viewReached(v *serve.View, target []serve.ShardVersion) bool {
	got := make(map[int]uint64, len(target))
	for _, sv := range v.Versions() {
		got[sv.Shard] = sv.Version
	}
	for _, sv := range target {
		if got[sv.Shard] < sv.Version {
			return false
		}
	}
	return true
}

// groupsBitIdentical compares grouped results by IEEE-754 bit pattern.
func groupsBitIdentical(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
		for j := range a[i].Key {
			if math.Float64bits(a[i].Key[j]) != math.Float64bits(b[i].Key[j]) {
				return false
			}
		}
	}
	return true
}
