package queries

import (
	"math"

	"rpai/internal/rpai"
	"rpai/internal/stream"
	"rpai/internal/treemap"
)

// NQ1 (paper section 5.2.1): VWAP whose correlated subquery is replaced by
// another VWAP-like correlated nested aggregate, giving two levels of
// nesting. The innermost query is correlated one level up (to b2), not to
// the outermost query:
//
//	SELECT Sum(b.price * b.volume) FROM bids b
//	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
//	   < (SELECT Sum(b2.volume) FROM bids b2
//	      WHERE b2.price <= b.price
//	        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3)
//	            < (SELECT Sum(b4.volume) FROM bids b4
//	               WHERE b4.price <= b2.price))
//
// A bid at price q satisfies the inner condition iff the cumulative volume
// up to q exceeds half the total volume, so the "qualifying" levels form a
// suffix [q*, +inf) of the price axis. The paper handles NQ1 by "computing
// the delta of the new subquery independent of the outer query" and feeding
// it into the VWAP machinery; here that delta is the set of price levels
// whose qualifying volume changed, each applied to the aggregate index in
// O(log n).

// nq1Naive re-evaluates from scratch: O(n^3) per event.
type nq1Naive struct {
	live liveSet
}

func newNQ1Naive() *nq1Naive { return &nq1Naive{} }

func (q *nq1Naive) Name() string       { return "nq1" }
func (q *nq1Naive) Strategy() Strategy { return Naive }

func (q *nq1Naive) Apply(e stream.Event) {
	if e.Side != stream.Bids {
		return
	}
	q.live.apply(e)
}

func (q *nq1Naive) Result() float64 {
	var total float64
	for _, r := range q.live.recs {
		total += r.Volume
	}
	var res float64
	for _, b := range q.live.recs {
		var rhs float64
		for _, b2 := range q.live.recs {
			if b2.Price > b.Price {
				continue
			}
			var inner float64
			for _, b4 := range q.live.recs {
				if b4.Price <= b2.Price {
					inner += b4.Volume
				}
			}
			if 0.5*total < inner {
				rhs += b2.Volume
			}
		}
		if 0.75*total < rhs {
			res += b.Price * b.Volume
		}
	}
	return res
}

// nq1Toaster maintains per-price views; the correlated middle and inner
// subqueries are re-evaluated per event by scanning distinct prices twice
// (first to classify levels, then to accumulate per outer price): O(p^2).
type nq1Toaster struct {
	volAt  map[float64]float64
	pvAt   map[float64]float64
	cntAt  map[float64]float64
	sumVol float64
}

func newNQ1Toaster() *nq1Toaster {
	return &nq1Toaster{
		volAt: make(map[float64]float64),
		pvAt:  make(map[float64]float64),
		cntAt: make(map[float64]float64),
	}
}

func (q *nq1Toaster) Name() string       { return "nq1" }
func (q *nq1Toaster) Strategy() Strategy { return Toaster }

func (q *nq1Toaster) Apply(e stream.Event) {
	if e.Side != stream.Bids {
		return
	}
	t, x := e.Rec, e.X()
	q.volAt[t.Price] += x * t.Volume
	q.pvAt[t.Price] += x * t.Price * t.Volume
	q.cntAt[t.Price] += x
	q.sumVol += x * t.Volume
	if q.cntAt[t.Price] == 0 {
		delete(q.volAt, t.Price)
		delete(q.pvAt, t.Price)
		delete(q.cntAt, t.Price)
	}
}

func (q *nq1Toaster) Result() float64 {
	// Pass 1: classify every level by the inner condition (each prefix sum
	// recomputed by scanning, as re-evaluation would).
	qual := make(map[float64]float64, len(q.volAt))
	for p := range q.volAt {
		var prefix float64
		for p2, v := range q.volAt {
			if p2 <= p {
				prefix += v
			}
		}
		if 0.5*q.sumVol < prefix {
			qual[p] = q.volAt[p]
		}
	}
	// Pass 2: per outer price, sum qualifying volume below it.
	lhs := 0.75 * q.sumVol
	var res float64
	for p, pv := range q.pvAt {
		var rhs float64
		for p2, v := range qual {
			if p2 <= p {
				rhs += v
			}
		}
		if lhs < rhs {
			res += pv
		}
	}
	return res
}

// nq1RPAI is the paper's executor. State:
//
//   - byPrice: price -> total volume (drives the inner condition),
//   - qualVol: price -> volume restricted to qualifying levels (the suffix
//     [qstar, +inf) of byPrice),
//   - resMap/cntAt: per-price outer aggregates, used to split aggregate-index
//     keys by price range,
//   - agg: rhs -> sum(price*volume), keyed by rhs(p) = qualVol.PrefixSum(p).
//
// Each event updates byPrice, reconciles the qualifying suffix (the
// subquery's delta), and applies each changed level to the aggregate index
// with shiftKeys plus a range-precise key split. Per-event cost is
// O((1 + c) log n) where c is the number of levels crossing the qualifying
// boundary.
type nq1RPAI struct {
	byPrice *treemap.Tree
	qualVol *treemap.Tree
	resMap  *treemap.Tree // price -> sum(price*volume)
	cntAt   map[float64]float64
	agg     *rpai.Tree
	sumVol  float64
	qstar   float64 // current qualifying boundary, +inf when no level qualifies
}

func newNQ1RPAI() *nq1RPAI {
	return &nq1RPAI{
		byPrice: treemap.New(),
		qualVol: treemap.New(),
		resMap:  treemap.New(),
		cntAt:   make(map[float64]float64),
		agg:     rpai.New(),
		qstar:   math.Inf(1),
	}
}

func (q *nq1RPAI) Name() string       { return "nq1" }
func (q *nq1RPAI) Strategy() Strategy { return RPAI }

func (q *nq1RPAI) Apply(e stream.Event) {
	if e.Side != stream.Bids {
		return
	}
	t, x := e.Rec, e.X()
	pv := x * t.Price * t.Volume
	if x > 0 {
		q.byPrice.Add(t.Price, t.Volume)
		q.sumVol += t.Volume
		q.reconcile(t.Price)
		q.outerAdd(t.Price, pv, x)
	} else {
		// Retract the outer tuple while the index keys still reflect the
		// pre-event qualifying state, then update the subquery.
		q.outerAdd(t.Price, pv, x)
		q.byPrice.Add(t.Price, -t.Volume)
		if v, _ := q.byPrice.Get(t.Price); v == 0 {
			q.byPrice.Delete(t.Price)
		}
		q.sumVol -= t.Volume
		q.reconcile(t.Price)
	}
}

// outerAdd inserts (x > 0) or retracts (x < 0) one outer tuple's
// contribution at its current rhs key.
func (q *nq1RPAI) outerAdd(price, pv, x float64) {
	key := q.qualVol.PrefixSum(price)
	q.agg.Add(key, pv)
	if v, ok := q.agg.Get(key); ok && v == 0 {
		q.agg.Delete(key)
	}
	q.resMap.Add(price, pv)
	q.cntAt[price] += x
	if q.cntAt[price] == 0 {
		delete(q.cntAt, price)
		q.resMap.Delete(price)
	}
}

// reconcile brings qualVol (and the aggregate index) in line with the new
// qualifying boundary after byPrice/sumVol changed at eventPrice.
func (q *nq1RPAI) reconcile(eventPrice float64) {
	newQstar := math.Inf(1)
	if k, ok := q.byPrice.FirstPrefixGreater(0.5 * q.sumVol); ok {
		newQstar = k
	}
	lo, hi := q.qstar, newQstar
	if lo > hi {
		lo, hi = hi, lo
	}
	// Candidate levels whose qualifying volume may differ from target: those
	// between the old and new boundary (in either byPrice or qualVol, since
	// a level may have vanished from byPrice) plus the event's own level.
	seen := map[float64]bool{eventPrice: true}
	candidates := []float64{eventPrice}
	collect := func(k, _ float64) bool {
		if !seen[k] {
			seen[k] = true
			candidates = append(candidates, k)
		}
		return true
	}
	if !math.IsInf(lo, 1) {
		if math.IsInf(hi, 1) {
			q.byPrice.AscendRange(lo, math.MaxFloat64, collect)
			q.qualVol.AscendRange(lo, math.MaxFloat64, collect)
		} else {
			q.byPrice.AscendRange(lo, hi, collect)
			q.qualVol.AscendRange(lo, hi, collect)
		}
	}
	for _, level := range candidates {
		var target float64
		if level >= newQstar {
			target, _ = q.byPrice.Get(level)
		}
		cur, _ := q.qualVol.Get(level)
		if d := target - cur; d != 0 {
			q.applyQualDelta(level, d)
		}
	}
	q.qstar = newQstar
}

// applyQualDelta applies a qualifying-volume change of d at price level
// while keeping agg keyed by the up-to-date rhs values. Outer prices above
// the level's group shift wholesale; the group containing the level itself
// is split by price using resMap range sums, so merged keys (outer prices
// sharing an rhs value) are handled exactly.
func (q *nq1RPAI) applyQualDelta(level, d float64) {
	base := q.qualVol.PrefixSum(level)
	var valToMove float64
	if next, ok := q.qualVol.Higher(level); ok {
		valToMove = q.resMap.RangeSum(level, next)
	} else {
		valToMove = q.resMap.SuffixSumFrom(level)
	}
	q.agg.ShiftKeys(base, d)
	if valToMove != 0 {
		q.agg.Add(base, -valToMove)
		if v, ok := q.agg.Get(base); ok && v == 0 {
			q.agg.Delete(base)
		}
		q.agg.Add(base+d, valToMove)
	}
	q.qualVol.Add(level, d)
	if v, _ := q.qualVol.Get(level); v == 0 {
		q.qualVol.Delete(level)
	}
}

func (q *nq1RPAI) Result() float64 {
	lhs := 0.75 * q.sumVol
	return q.agg.Total() - q.agg.GetSum(lhs)
}
