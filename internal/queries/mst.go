package queries

import (
	"rpai/internal/rpai"
	"rpai/internal/stream"
	"rpai/internal/treemap"
)

// MST ("missed trades", DBToaster finance benchmark): the cross join of bids
// and asks restricted to the top quarter of each book by cumulative volume
// from the best price:
//
//	SELECT Sum(a.price*a.volume - b.price*b.volume) FROM bids b, asks a
//	WHERE 0.25 * (SELECT Sum(a1.volume) FROM asks a1)
//	      > (SELECT Sum(a2.volume) FROM asks a2 WHERE a2.price > a.price)
//	AND   0.25 * (SELECT Sum(b1.volume) FROM bids b1)
//	      > (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price > b.price)
//
// Four nested aggregates, two of them correlated with inequality predicates
// (paper Table 1). The cross join factorizes: with QA/QB the qualifying ask
// and bid sets, the result is |QB|*sum_pv(QA) - |QA|*sum_pv(QB).

// mstNaive re-evaluates from scratch: per-record correlated sums by scanning
// the relation, then the factored cross-join aggregation. O(n^2) per event.
type mstNaive struct {
	bids liveSet
	asks liveSet
}

func newMSTNaive() *mstNaive { return &mstNaive{} }

func (q *mstNaive) Name() string       { return "mst" }
func (q *mstNaive) Strategy() Strategy { return Naive }

func (q *mstNaive) Apply(e stream.Event) {
	if e.Side == stream.Bids {
		q.bids.apply(e)
	} else {
		q.asks.apply(e)
	}
}

func (q *mstNaive) Result() float64 {
	sideAggregates := func(recs []stream.Record) (cnt, pv float64) {
		var total float64
		for _, r := range recs {
			total += r.Volume
		}
		thr := 0.25 * total
		for _, r := range recs {
			var above float64
			for _, r2 := range recs {
				if r2.Price > r.Price {
					above += r2.Volume
				}
			}
			if thr > above {
				cnt++
				pv += r.Price * r.Volume
			}
		}
		return cnt, pv
	}
	cntQA, pvQA := sideAggregates(q.asks.recs)
	cntQB, pvQB := sideAggregates(q.bids.recs)
	return cntQB*pvQA - cntQA*pvQB
}

// mstSideToaster holds one side's DBToaster-style materialized views:
// per-price volume, count and price*volume sums plus the total volume.
type mstSideToaster struct {
	volAt  map[float64]float64 // price -> sum(volume)
	cntAt  map[float64]float64 // price -> count
	pvAt   map[float64]float64 // price -> sum(price*volume)
	sumVol float64
}

func newMSTSideToaster() *mstSideToaster {
	return &mstSideToaster{
		volAt: make(map[float64]float64),
		cntAt: make(map[float64]float64),
		pvAt:  make(map[float64]float64),
	}
}

func (s *mstSideToaster) apply(t stream.Record, x float64) {
	s.volAt[t.Price] += x * t.Volume
	s.cntAt[t.Price] += x
	s.pvAt[t.Price] += x * t.Price * t.Volume
	s.sumVol += x * t.Volume
	if s.cntAt[t.Price] == 0 {
		delete(s.volAt, t.Price)
		delete(s.cntAt, t.Price)
		delete(s.pvAt, t.Price)
	}
}

// aggregates recomputes the qualifying count and price*volume sum by the
// quadratic distinct-price loop DBToaster falls back to for correlated
// nested aggregates (paper section 5.2.1: "it needs to iterate through
// records from both relations to compute those correlated subqueries").
func (s *mstSideToaster) aggregates() (cnt, pv float64) {
	thr := 0.25 * s.sumVol
	for p := range s.volAt {
		var above float64
		for p2, v := range s.volAt {
			if p2 > p {
				above += v
			}
		}
		if thr > above {
			cnt += s.cntAt[p]
			pv += s.pvAt[p]
		}
	}
	return cnt, pv
}

// mstToaster is the DBToaster-style executor: incremental per-price views,
// re-evaluated correlated subqueries. O(p^2) per event for p distinct prices.
type mstToaster struct {
	bids *mstSideToaster
	asks *mstSideToaster
}

func newMSTToaster() *mstToaster {
	return &mstToaster{bids: newMSTSideToaster(), asks: newMSTSideToaster()}
}

func (q *mstToaster) Name() string       { return "mst" }
func (q *mstToaster) Strategy() Strategy { return Toaster }

func (q *mstToaster) Apply(e stream.Event) {
	side := q.bids
	if e.Side == stream.Asks {
		side = q.asks
	}
	side.apply(e.Rec, e.X())
}

func (q *mstToaster) Result() float64 {
	cntQA, pvQA := q.asks.aggregates()
	cntQB, pvQB := q.bids.aggregates()
	return cntQB*pvQA - cntQA*pvQB
}

// mstSideRPAI holds one side's RPAI state. The correlated aggregate
// rhs(r) = SUM(volume | price > r.price) is monotonically decreasing in
// price, so it indexes two aggregate indexes (count and price*volume) keyed
// by rhs. An arrival at price p increments rhs of every record with a lower
// price — a suffix shift of the key space, exactly the paper's Algorithm 4
// inequality case.
type mstSideRPAI struct {
	byPrice *treemap.Tree // price -> sum(volume), for computing rhs keys
	cnt     *rpai.Tree    // rhs -> count of records
	pv      *rpai.Tree    // rhs -> sum(price*volume)
	sumVol  float64
}

func newMSTSideRPAI() *mstSideRPAI {
	return &mstSideRPAI{byPrice: treemap.New(), cnt: rpai.New(), pv: rpai.New()}
}

func (s *mstSideRPAI) apply(t stream.Record, x float64) {
	// rhs for the updated price level: volume strictly above t.price. The
	// level's own key is rhs (its suffix excludes its own volume, so this
	// event leaves it in place); every lower price level gains the volume
	// delta. When the level already exists, lower levels sit at keys
	// strictly above rhs (separated by the level's own positive volume) and
	// an exclusive shift suffices. When the level is new, the closest lower
	// level can share the key rhs exactly and must shift too, while records
	// at higher prices all sit strictly below rhs — hence the inclusive
	// shift.
	rhs := s.byPrice.SuffixSumGreater(t.Price)
	volAt, _ := s.byPrice.Get(t.Price)
	d := x * t.Volume
	if volAt > 0 {
		s.cnt.ShiftKeys(rhs, d)
		s.pv.ShiftKeys(rhs, d)
	} else {
		s.cnt.ShiftKeysInclusive(rhs, d)
		s.pv.ShiftKeysInclusive(rhs, d)
	}
	s.byPrice.Add(t.Price, d)
	if v, _ := s.byPrice.Get(t.Price); v == 0 {
		s.byPrice.Delete(t.Price)
	}
	s.sumVol += d
	s.cnt.Add(rhs, x)
	s.pv.Add(rhs, x*t.Price*t.Volume)
	if v, ok := s.cnt.Get(rhs); ok && v == 0 {
		s.cnt.Delete(rhs)
		s.pv.Delete(rhs)
	}
}

// aggregates returns the qualifying count and price*volume sum: records with
// rhs key strictly below 0.25 * total volume.
func (s *mstSideRPAI) aggregates() (cnt, pv float64) {
	thr := 0.25 * s.sumVol
	return s.cnt.GetSumLess(thr), s.pv.GetSumLess(thr)
}

// mstRPAI is the paper's executor: O(log n) per event.
type mstRPAI struct {
	bids *mstSideRPAI
	asks *mstSideRPAI
}

func newMSTRPAI() *mstRPAI {
	return &mstRPAI{bids: newMSTSideRPAI(), asks: newMSTSideRPAI()}
}

func (q *mstRPAI) Name() string       { return "mst" }
func (q *mstRPAI) Strategy() Strategy { return RPAI }

func (q *mstRPAI) Apply(e stream.Event) {
	side := q.bids
	if e.Side == stream.Asks {
		side = q.asks
	}
	side.apply(e.Rec, e.X())
}

func (q *mstRPAI) Result() float64 {
	cntQA, pvQA := q.asks.aggregates()
	cntQB, pvQB := q.bids.aggregates()
	return cntQB*pvQA - cntQA*pvQB
}
