package queries

import (
	"rpai/internal/aggindex"
	"rpai/internal/stream"
	"rpai/internal/treemap"
)

// VWAP (paper Example 2.2): the volume-weighted sum of prices over bids in
// the final quartile of total volume:
//
//	SELECT Sum(b.price * b.volume) FROM bids b
//	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
//	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)

// vwapNaive re-evaluates the query from scratch on every event (Figure 2a).
type vwapNaive struct {
	live liveSet
}

func newVWAPNaive() *vwapNaive { return &vwapNaive{} }

func (q *vwapNaive) Name() string       { return "vwap" }
func (q *vwapNaive) Strategy() Strategy { return Naive }

func (q *vwapNaive) Apply(e stream.Event) {
	if e.Side != stream.Bids {
		return
	}
	q.live.apply(e)
}

func (q *vwapNaive) Result() float64 {
	var lhs float64
	for _, b1 := range q.live.recs {
		lhs += b1.Volume
	}
	lhs *= 0.75
	var res float64
	for _, b := range q.live.recs {
		var rhs float64
		for _, b2 := range q.live.recs {
			if b2.Price <= b.Price {
				rhs += b2.Volume
			}
		}
		if lhs < rhs {
			res += b.Price * b.Volume
		}
	}
	return res
}

// vwapToaster maintains the materialized views DBToaster generates for VWAP
// (Figure 2b): per-price sums plus a quadratic loop over distinct prices to
// connect the correlated nested aggregate to the outer query.
type vwapToaster struct {
	sumPV  map[float64]float64 // map1: price -> sum(price*volume)
	sumVol float64             // map2: sum(volume)
	volAt  map[float64]float64 // map3: price -> sum(volume)
}

func newVWAPToaster() *vwapToaster {
	return &vwapToaster{
		sumPV: make(map[float64]float64),
		volAt: make(map[float64]float64),
	}
}

func (q *vwapToaster) Name() string       { return "vwap" }
func (q *vwapToaster) Strategy() Strategy { return Toaster }

func (q *vwapToaster) Apply(e stream.Event) {
	if e.Side != stream.Bids {
		return
	}
	t, x := e.Rec, e.X()
	q.sumPV[t.Price] += x * t.Price * t.Volume
	q.sumVol += x * t.Volume
	q.volAt[t.Price] += x * t.Volume
	if q.volAt[t.Price] == 0 {
		delete(q.volAt, t.Price)
		delete(q.sumPV, t.Price)
	}
}

func (q *vwapToaster) Result() float64 {
	lhs := 0.75 * q.sumVol
	var res float64
	for bPrice, pv := range q.sumPV {
		var rhs float64
		for b2Price, vol := range q.volAt {
			if b2Price <= bPrice {
				rhs += vol
			}
		}
		if lhs < rhs {
			res += pv
		}
	}
	return res
}

// vwapRPAI is the paper's fully incremental strategy (Figure 2c): an
// aggregate index keyed by the correlated nested aggregate (rhs_sum), shifted
// in O(log n) on every event, plus a sum-augmented price map for computing
// rhs_sum values. Per-event cost is O(log n) with the RPAI tree.
type vwapRPAI struct {
	agg     aggindex.Index // rhs_sum -> sum(price*volume)
	sumVol  float64        // map2: sum(volume)
	byPrice *treemap.Tree  // map3: price -> sum(volume)
}

func newVWAPRPAI() *vwapRPAI { return newVWAPWith(aggindex.KindArena) }

// newVWAPWith selects the aggregate-index implementation; benchmarks use it
// to ablate RPAI trees against PAI maps.
func newVWAPWith(kind aggindex.Kind) *vwapRPAI {
	return &vwapRPAI{agg: aggindex.New(kind), byPrice: treemap.New()}
}

func (q *vwapRPAI) Name() string       { return "vwap" }
func (q *vwapRPAI) Strategy() Strategy { return RPAI }

func (q *vwapRPAI) Apply(e stream.Event) {
	if e.Side != stream.Bids {
		return
	}
	t, x := e.Rec, e.X()
	// rhs_sum for the updated price level, before the update; volAt is the
	// level's current volume. Every outer price >= t.price has its rhs_sum
	// key strictly above rhs-volAt, and every lower price at or below it
	// (distinct live price levels have strictly distinct rhs keys because
	// each level carries positive volume).
	rhs := q.byPrice.PrefixSum(t.Price)
	volAt, _ := q.byPrice.Get(t.Price)
	q.agg.ShiftKeys(rhs-volAt, x*t.Volume)
	q.byPrice.Add(t.Price, x*t.Volume)
	if v, _ := q.byPrice.Get(t.Price); v == 0 {
		q.byPrice.Delete(t.Price)
	}
	q.sumVol += x * t.Volume
	key := rhs + x*t.Volume
	q.agg.Add(key, x*t.Price*t.Volume)
	if v, ok := q.agg.Get(key); ok && v == 0 {
		q.agg.Delete(key)
	}
}

func (q *vwapRPAI) Result() float64 {
	lhs := 0.75 * q.sumVol
	return q.agg.Total() - q.agg.GetSum(lhs)
}

// NewVWAPWithIndex builds the RPAI-strategy VWAP executor over a chosen
// aggregate-index implementation — the ablation hook used by the
// section 2.2.3 PAI-vs-RPAI benchmarks.
func NewVWAPWithIndex(kind aggindex.Kind) BidsExecutor { return newVWAPWith(kind) }
