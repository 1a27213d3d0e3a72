package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// This file is the serving side of shared-state reads (probe lanes): one
// service maintains its executors once, and every snapshot additionally
// materializes the per-partition results of K probe plans via the executors'
// ResultProbe. Lanes generalize PR 9's threshold fans three ways: a lane may
// probe a different threshold constant, a different outer aggregate (SUM,
// COUNT, AVG — the relation state maintains both index sides), or carry a
// residual partition-column conjunct applied as a per-partition gate. Each
// lane's values are bit-identical to a dedicated single-variant service fed
// the same events — the engine's ProbeExecutor contract plus gate-zeroing —
// so a catalog can serve N structural variants from one executor set.

// canonSpecs sorts and deduplicates lane specs. Lanes are addressed by spec
// value (ProbeSpec is comparable), so callers never track positions; the
// order is deterministic — by constant bits, then kind, then residual — so
// every shard and every recovery installs identical lane layouts.
func canonSpecs(specs []engine.ProbeSpec) []engine.ProbeSpec {
	out := append([]engine.ProbeSpec(nil), specs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Const != b.Const {
			return a.Const < b.Const
		}
		if ab, bb := math.Float64bits(a.Const), math.Float64bits(b.Const); ab != bb {
			return ab < bb // orders -0 before +0 deterministically
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Residual != b.Residual {
			return !a.Residual
		}
		if a.ResidualCol != b.ResidualCol {
			return a.ResidualCol < b.ResidualCol
		}
		if a.ResidualOp != b.ResidualOp {
			return a.ResidualOp < b.ResidualOp
		}
		return math.Float64bits(a.ResidualVal) < math.Float64bits(b.ResidualVal)
	})
	w := 0
	for i, sp := range out {
		if i == 0 || sp != out[i-1] {
			out[w] = sp
			w++
		}
	}
	return out[:w]
}

// SetProbes installs the service's probe lanes, replacing any previous set:
// every partition's per-lane results are re-evaluated on its owning shard's
// worker, and the next publication is a full one (lane values are not a
// delta on the previous lane set). An empty specs disables lane reads. The
// specs are deduplicated and canonically ordered; lanes are addressed by
// spec value, not index. Fails when any partition's executor does not
// implement engine.ProbeExecutor, or when a residual spec names a column
// outside the partition columns — partitions created after a successful
// SetProbes are guaranteed lane-capable because every partition runs the
// same plan. Shard installation errors are joined (errors.Join), not
// truncated to the first shard's report; a failed shard keeps its previous
// lanes. SetProbes returns after every shard has installed the lanes; the
// publication carrying them follows the shard's next commit (Drain for a
// barrier).
func (s *Service) SetProbes(specs []engine.ProbeSpec) error {
	canon := canonSpecs(specs)
	hasAvg := false
	for _, sp := range canon {
		if sp.Kind == query.Avg {
			hasAvg = true
		}
		if sp.Residual && !colNamed(s.plan.cols, sp.ResidualCol) {
			return fmt.Errorf("serve: residual probe column %q is not a partition column (partition columns: %v)",
				sp.ResidualCol, s.plan.cols)
		}
	}
	var errs []error
	for i := range s.shards {
		if err := s.control(i, func(ws *workerState) error {
			if len(canon) == 0 {
				ws.specs, ws.hasAvg = nil, false
				for _, p := range ws.plist {
					p.fan, p.fanCnt, p.gate = nil, nil, nil
				}
				ws.publishFull = true
				return nil
			}
			for _, p := range ws.plist {
				if p.probeEx == nil {
					return fmt.Errorf("serve: executor %T does not support probe reads", p.ex)
				}
			}
			ws.specs, ws.hasAvg = canon, hasAvg
			for _, p := range ws.plist {
				ws.sizeLanes(p)
				p.refreshLanes(ws)
			}
			ws.publishFull = true
			return nil
		}); err != nil {
			errs = append(errs, fmt.Errorf("serve: set probes shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

func colNamed(cols []string, name string) bool {
	for _, c := range cols {
		if c == name {
			return true
		}
	}
	return false
}

// laneOfSpec locates the lane serving spec in the canonical lane set; -1
// when absent. Constants match by exact bits (ProbeSpec equality).
func laneOfSpec(specs []engine.ProbeSpec, spec engine.ProbeSpec) int {
	for i, sp := range specs {
		if sp == spec {
			return i
		}
	}
	return -1
}

// ProbeResult returns the service-wide value of the lane serving spec, as of
// each shard's last published snapshot — the lane counterpart of Result. For
// AVG lanes the raw sum and count sides are summed across all shards first
// and finished as one quotient, the exact global average. ok is false when
// some shard's snapshot does not carry the lane (SetProbes with spec has not
// published everywhere yet, or spec was never installed).
func (s *Service) ProbeResult(spec engine.ProbeSpec) (float64, bool) {
	var sum, cnt float64
	for _, sh := range s.shards {
		snap := sh.snap.Load()
		lane := laneOfSpec(snap.Probes, spec)
		if lane < 0 {
			return 0, false
		}
		sum += snap.FanTotals[lane]
		if snap.FanCntTotals != nil {
			cnt += snap.FanCntTotals[lane]
		}
	}
	return engine.FinishProbe(spec, sum, cnt), true
}

// ProbeResultGrouped returns the per-partition values of the lane serving
// spec, sorted by partition key — the lane counterpart of ResultGrouped, the
// same merge of the shards' ordered views. AVG lanes finish per partition
// (each group is its partition's exact average).
func (s *Service) ProbeResultGrouped(spec engine.ProbeSpec) ([]engine.GroupResult, bool) {
	snaps, n := s.loadSnapshots()
	lanes := make([]int, len(snaps))
	for i, snap := range snaps {
		if lanes[i] = laneOfSpec(snap.Probes, spec); lanes[i] < 0 {
			return nil, false
		}
	}
	out := make([]engine.GroupResult, 0, n)
	mergeSnapshots(snaps, func(i int, slot int32) {
		snap, at := snaps[i], int(slot)*len(snaps[i].Probes)+lanes[i]
		var c float64
		if snap.FanCnts != nil {
			c = snap.FanCnts[at]
		}
		out = append(out, engine.GroupResult{Key: snap.Keys[slot], Value: engine.FinishProbe(spec, snap.FanVals[at], c)})
	})
	return out, true
}
