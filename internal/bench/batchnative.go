package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"rpai/internal/aggindex"
	"rpai/internal/engine"
	"rpai/internal/queries"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/stream"
)

// BatchNativeConfig parameterizes the batch-native ingest experiment: the
// same partitioned VWAP trace pushed through the serving layer via
// ApplyBatch at increasing batch sizes, once per execution strategy. The
// batched path promises bit-identical results, so the sweep doubles as a
// differential test: within a strategy every batch size must produce the
// exact same final Result.
type BatchNativeConfig struct {
	// Events is the trace length of the strategy sweep.
	Events int `json:"events"`
	// BatchSizes are the ApplyBatch chunk sizes to sweep (1 = per event).
	BatchSizes []int `json:"batch_sizes"`
	// Partitions / Shards shape the sweep's serving topology.
	Partitions int `json:"partitions"`
	Shards     int `json:"shards"`
	// ServeEvents / ServePartitions / ServeShards configure the end-to-end
	// pipelined serving run (0 events skips it). It mirrors the arena
	// experiment's serve ablation so the two reports stay comparable.
	ServeEvents     int   `json:"serve_events"`
	ServePartitions int   `json:"serve_partitions"`
	ServeShards     int   `json:"serve_shards"`
	Seed            int64 `json:"seed"`
}

// DefaultBatchNative returns the scales used for BENCH_batch.json.
func DefaultBatchNative() BatchNativeConfig {
	return BatchNativeConfig{
		Events:          100000,
		BatchSizes:      []int{1, 8, 64, 512},
		Partitions:      1024,
		Shards:          4,
		ServeEvents:     150000,
		ServePartitions: 8192,
		ServeShards:     4,
		Seed:            1,
	}
}

// QuickBatchNative shrinks the experiment for smoke runs.
func QuickBatchNative() BatchNativeConfig {
	return BatchNativeConfig{
		Events:          20000,
		BatchSizes:      []int{1, 64},
		Partitions:      256,
		Shards:          2,
		ServeEvents:     20000,
		ServePartitions: 512,
		ServeShards:     2,
		Seed:            1,
	}
}

// BatchNativePoint is one (strategy, batch size) cell of the sweep.
type BatchNativePoint struct {
	Strategy     string  `json:"strategy"`
	Batch        int     `json:"batch"`
	Events       int     `json:"events"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is events/sec relative to batch size 1 of the same strategy.
	Speedup float64 `json:"speedup,omitempty"`
	// Result is the drained total, bit-identical across batch sizes.
	Result float64 `json:"result"`
}

// BatchNativeReport is the full experiment output for BENCH_batch.json.
type BatchNativeReport struct {
	Header
	Config BatchNativeConfig  `json:"config"`
	Sweep  []BatchNativePoint `json:"sweep"`
	// Serve is the pipelined end-to-end serve ablation (per-event Apply with
	// the worker's own greedy batching), mirroring the arena report's serve
	// section.
	Serve []ArenaServePoint `json:"serve,omitempty"`
}

// batchNativeStrategies pins one executor construction per engine strategy.
// Naive is excluded: its Result rescans the live set, so refreshing a
// partition snapshot per batch would measure the oracle's quadratic scan,
// not the ingest path.
func batchNativeStrategies(q *query.Query) []struct {
	name string
	mk   func() serve.Executor[engine.Event]
} {
	mk := func(build func() (engine.Executor, error)) func() serve.Executor[engine.Event] {
		return func() serve.Executor[engine.Event] {
			ex, err := build()
			if err != nil {
				panic("bench: " + err.Error())
			}
			return ex
		}
	}
	return []struct {
		name string
		mk   func() serve.Executor[engine.Event]
	}{
		{"general", mk(func() (engine.Executor, error) { return engine.NewGeneral(q) })},
		{"aggindex-rpai", mk(func() (engine.Executor, error) { return engine.NewWithIndexKind(q, aggindex.KindRPAI) })},
		{"aggindex-arena", mk(func() (engine.Executor, error) { return engine.NewWithIndexKind(q, aggindex.KindArena) })},
	}
}

// BatchNative runs the sweep: for every strategy and batch size, push the
// same trace through a serving service via ApplyBatch in chunks of that
// size (with the shard drain bound set to match), and record end-to-end
// throughput. Within a strategy the drained Result must be bit-identical
// across batch sizes — the serving-layer face of the ApplyBatch contract —
// and divergence is an error.
func BatchNative(cfg BatchNativeConfig) (*BatchNativeReport, error) {
	if cfg.Events == 0 {
		cfg = DefaultBatchNative()
	}
	rep := &BatchNativeReport{Header: NewHeader("batch", 1), Config: cfg}
	q := vwapQuery()
	events := vwapEvents(cfg.Seed, cfg.Events, cfg.Partitions)
	for _, strat := range batchNativeStrategies(q) {
		var base BatchNativePoint
		for _, bs := range cfg.BatchSizes {
			p, err := batchNativeRun(strat.name, strat.mk, events, bs, cfg.Shards)
			if err != nil {
				return nil, err
			}
			if bs == cfg.BatchSizes[0] {
				base = p
			} else {
				p.Speedup = p.EventsPerSec / base.EventsPerSec
				if math.Float64bits(p.Result) != math.Float64bits(base.Result) {
					return nil, fmt.Errorf("bench: %s result diverged at batch %d: %g vs %g",
						strat.name, bs, p.Result, base.Result)
				}
			}
			rep.Sweep = append(rep.Sweep, p)
		}
	}
	if cfg.ServeEvents > 0 {
		points, err := batchNativeServe(cfg)
		if err != nil {
			return nil, err
		}
		rep.Serve = points
	}
	return rep, nil
}

// batchNativeRun measures one cell: the trace in ApplyBatch chunks of bs.
func batchNativeRun(name string, mk func() serve.Executor[engine.Event], events []engine.Event, bs, shards int) (BatchNativePoint, error) {
	var p BatchNativePoint
	svc, err := serve.New(serve.Config[engine.Event]{
		Shards:    shards,
		BatchSize: bs,
		Partition: func(e engine.Event, buf []float64) []float64 {
			return append(buf, e.Tuple["sym"])
		},
		New: func([]float64) serve.Executor[engine.Event] { return mk() },
	})
	if err != nil {
		return p, err
	}
	start := time.Now()
	for off := 0; off < len(events); off += bs {
		end := off + bs
		if end > len(events) {
			end = len(events)
		}
		if err := svc.ApplyBatch(events[off:end]); err != nil {
			return p, err
		}
	}
	if err := svc.Drain(); err != nil {
		return p, err
	}
	elapsed := time.Since(start)
	res := svc.Result()
	if err := svc.Close(); err != nil {
		return p, err
	}
	return BatchNativePoint{
		Strategy:     name,
		Batch:        bs,
		Events:       len(events),
		ElapsedMS:    float64(elapsed.Microseconds()) / 1e3,
		EventsPerSec: float64(len(events)) / elapsed.Seconds(),
		Result:       res,
	}, nil
}

// batchNativeServe is the pipelined end-to-end ablation: the order-book VWAP
// trace fed per event (the worker's greedy drain does the batching), exactly
// like the arena report's serve section, so the two numbers are comparable.
func batchNativeServe(cfg BatchNativeConfig) ([]ArenaServePoint, error) {
	events := FinanceTrace(cfg.ServeEvents, false, cfg.Seed)
	var points []ArenaServePoint
	for _, kind := range []aggindex.Kind{aggindex.KindRPAI, aggindex.KindArena} {
		kind := kind
		svc, err := serve.New(serve.Config[stream.Event]{
			Shards: cfg.ServeShards,
			Partition: func(e stream.Event, buf []float64) []float64 {
				return append(buf, float64(e.Rec.ID%int64(cfg.ServePartitions)))
			},
			New: func([]float64) serve.Executor[stream.Event] {
				return queries.NewVWAPWithIndex(kind)
			},
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, e := range events {
			if err := svc.Apply(e); err != nil {
				return nil, err
			}
		}
		if err := svc.Drain(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		res := svc.Result()
		if err := svc.Close(); err != nil {
			return nil, err
		}
		p := ArenaServePoint{
			Index:        string(kind),
			Events:       len(events),
			Shards:       cfg.ServeShards,
			ElapsedMS:    float64(elapsed.Microseconds()) / 1e3,
			EventsPerSec: float64(len(events)) / elapsed.Seconds(),
			Result:       res,
		}
		if len(points) > 0 {
			base := points[0]
			p.Speedup = p.EventsPerSec / base.EventsPerSec
			if res != base.Result {
				return nil, fmt.Errorf("bench: serve result diverged between representations: %g vs %g",
					res, base.Result)
			}
		}
		points = append(points, p)
	}
	return points, nil
}

// BatchNativeJSON serializes the report for BENCH_batch.json.
func BatchNativeJSON(rep *BatchNativeReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatBatchNative renders the report as aligned text tables.
func FormatBatchNative(rep *BatchNativeReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch-native ingest (GOMAXPROCS=%d, NumCPU=%d, %d partitions, %d shards)\n",
		rep.GoMaxProcs, rep.NumCPU, rep.Config.Partitions, rep.Config.Shards)
	fmt.Fprintf(&b, "%-15s %7s %10s %12s %14s %9s\n",
		"strategy", "batch", "events", "elapsed", "events/sec", "speedup")
	for _, p := range rep.Sweep {
		speedup := ""
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("%8.2fx", p.Speedup)
		}
		fmt.Fprintf(&b, "%-15s %7d %10d %11.1fms %14.0f %9s\n",
			p.Strategy, p.Batch, p.Events, p.ElapsedMS, p.EventsPerSec, speedup)
	}
	if len(rep.Serve) > 0 {
		fmt.Fprintf(&b, "\nend-to-end serve (orderbook-vwap, %d shards, pipelined)\n", rep.Config.ServeShards)
		fmt.Fprintf(&b, "%-8s %10s %12s %14s %9s\n", "index", "events", "elapsed", "events/sec", "speedup")
		for _, p := range rep.Serve {
			speedup := ""
			if p.Speedup > 0 {
				speedup = fmt.Sprintf("%8.2fx", p.Speedup)
			}
			fmt.Fprintf(&b, "%-8s %10d %11.1fms %14.0f %9s\n",
				p.Index, p.Events, p.ElapsedMS, p.EventsPerSec, speedup)
		}
	}
	return b.String()
}
