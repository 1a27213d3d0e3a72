package serve

import (
	"errors"
	"fmt"
	"io"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// Options configures ForQuery; the zero value picks the Config defaults.
type Options struct {
	Shards   int
	QueueLen int
	// BatchSize bounds how many queued events a shard drains into one batch
	// before refreshing results and publishing a snapshot. 0 selects the
	// default of 64; negative values are rejected. The effective value is
	// surfaced per shard in ShardStats.BatchSize.
	BatchSize int
}

// engineDurable wires the engine's executor snapshot codec into the serving
// layer's persistence hooks. It is always installed, so any engine-backed
// service can Checkpoint. exec is the query the partition executors actually
// run (the residual-split base when orig carries a residual conjunct);
// snapshots persist only the base state, and Restore re-derives each
// partition's gate from its key — the gate is configuration, not state.
func engineDurable(exec, orig *query.Query, gate func([]float64) bool) *Durable[engine.Event] {
	return &Durable[engine.Event]{
		Snapshot: func(w io.Writer, _ []float64, ex Executor[engine.Event]) error {
			s, ok := ex.(engine.Snapshotter)
			if !ok {
				return fmt.Errorf("serve: executor %T does not support snapshots", ex)
			}
			return s.Snapshot(w)
		},
		Restore: func(r io.Reader, key []float64) (Executor[engine.Event], error) {
			ex, err := engine.Restore(exec, r)
			if err != nil {
				return nil, err
			}
			if exec != orig {
				return engine.NewGated(ex, gate(key)), nil
			}
			return ex, nil
		},
	}
}

func engineConfig(q *query.Query, partitionBy []string, opt Options) (Config[engine.Event], error) {
	var cfg Config[engine.Event]
	if len(partitionBy) == 0 {
		return cfg, errors.New("serve: ForQuery requires at least one partition column")
	}
	if q.Outer == query.Avg {
		// A partitioned service composes its scalar result by summing the
		// partitions, and an average is not sum-decomposable. AVG queries are
		// served as probe lanes (raw sum/count pairs finished at the read
		// boundary) — register them against a catalog instead.
		return cfg, errors.New("serve: top-level AVG is not sum-decomposable across partitions; register it against a catalog, which serves it as a probe lane")
	}
	// A query carrying one extra bare partition-column conjunct splits into
	// its shareable base plus a residual gate: every partition maintains the
	// base, and partitions the conjunct excludes are gated to 0 — the same
	// read the catalog serves for such a query as a residual probe lane, so
	// a dedicated service and a shared lane stay bit-identical.
	exec := q
	gate := func([]float64) bool { return true }
	if base, spec, ok := engine.SplitResidual(q, partitionBy); ok {
		exec = base
		gate = func(key []float64) bool { return spec.GateOn(partitionBy, key) }
	}
	if _, err := engine.New(exec); err != nil {
		return cfg, err
	}
	cfg = Config[engine.Event]{
		Shards:        opt.Shards,
		QueueLen:      opt.QueueLen,
		BatchSize:     opt.BatchSize,
		PartitionCols: partitionBy,
		Partition: func(e engine.Event, buf []float64) []float64 {
			for _, c := range partitionBy {
				buf = append(buf, e.Tuple[c])
			}
			return buf
		},
		New: func(key []float64) Executor[engine.Event] {
			ex, err := engine.New(exec)
			if err != nil {
				// Unreachable: the same query planned successfully above.
				panic("serve: " + err.Error())
			}
			if exec != q {
				return engine.NewGated(ex, gate(key))
			}
			return ex
		},
		Durable: engineDurable(exec, q, gate),
	}
	return cfg, nil
}

// ForQuery builds a service that maintains q independently per partition,
// partitioning engine events by the given tuple columns. Each partition gets
// its own executor from engine.New (so eligible queries use the aggregate-
// index strategy per partition). The query is validated and planned once up
// front; per-partition construction cannot fail afterwards. The service can
// always Checkpoint, and RecoverForQuery reopens what it exported.
func ForQuery(q *query.Query, partitionBy []string, opt Options) (*Service[engine.Event], error) {
	cfg, err := engineConfig(q, partitionBy, opt)
	if err != nil {
		return nil, err
	}
	return New(cfg)
}

// RecoverForQuery rebuilds a ForQuery service from the checkpoint directory
// dir. The query and partition columns must match the ones the checkpoint
// was written under (a mismatched query fails executor restoration); the
// shard count may differ — partitions are rehashed onto opt.Shards.
func RecoverForQuery(dir string, q *query.Query, partitionBy []string, opt Options) (*Service[engine.Event], error) {
	cfg, err := engineConfig(q, partitionBy, opt)
	if err != nil {
		return nil, err
	}
	return Recover(dir, cfg)
}
