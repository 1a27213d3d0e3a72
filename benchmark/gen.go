package main

import (
	"rpai/internal/engine"
	"rpai/internal/query"
)

// maxVolume bounds a row's volume: volumes are uniform in [1, maxVolume].
const maxVolume = 32

// Event is one generated update in flat form: 16 bytes, no map. It becomes
// an engine.Event only at the moment it is handed to a layer.
type Event struct {
	Sym, Price, Volume int32
	X                  int32 // +1 insert, -1 delete
}

// fill writes the event's columns into a caller-owned tuple and wraps it.
// Every consumer this benchmark feeds (the wire client's Apply, the engine's
// encoders) reads the tuple before returning, so one tuple can be reused for
// a whole stream.
func (e Event) fill(t query.Tuple) engine.Event {
	t["sym"] = float64(e.Sym)
	t["price"] = float64(e.Price)
	t["volume"] = float64(e.Volume)
	return engine.Event{X: float64(e.X), Tuple: t}
}

// boxed allocates a fresh tuple, for layers that keep the events they are
// given (engine and serve batches).
func (e Event) boxed() engine.Event { return e.fill(make(query.Tuple, 3)) }

// Gen produces a workload's event stream from a seed and, as it goes, keeps
// the live relation in the dense form the oracle reads: the state after the
// n-th generated event is exactly what a correct server holds once it has
// applied those n events. Inserts draw sym, price and volume uniformly;
// deletes retract a uniformly chosen live row.
type Gen struct {
	w    Workload
	rng  uint64
	live []Event

	// Dense relation state, indexed by cell = sym*Levels + price-1. The
	// marker partition is sym == Partitions, one row past the real ones.
	vol, cnt []int64
	// volHist[sym*(maxVolume+1)+v] counts the partition's live rows of
	// volume v, which is all an inner `volume > c` filter needs.
	volHist []int64
	seen    []bool // partitions that have received any event
	markers int64

	keep bool    // -verify: remember every generated event
	log  []Event // the events generated so far, when keep is set
}

// NewGen seeds a generator for one workload.
func NewGen(w Workload, seed uint64) *Gen {
	parts := w.Partitions + 1
	return &Gen{
		w:       w,
		rng:     seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		live:    make([]Event, 0, w.Preload+w.Preload/4),
		vol:     make([]int64, parts*w.Levels),
		cnt:     make([]int64, parts*w.Levels),
		volHist: make([]int64, parts*(maxVolume+1)),
		seen:    make([]bool, parts),
	}
}

// next is splitmix64: fast, seedable, and independent of the Go release.
func (g *Gen) next() uint64 {
	g.rng += 0x9E3779B97F4A7C15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (g *Gen) intn(n int) int { return int((g.next() >> 11) % uint64(n)) }

func (g *Gen) account(e Event) {
	cell := int(e.Sym)*g.w.Levels + int(e.Price) - 1
	g.vol[cell] += int64(e.X) * int64(e.Volume)
	g.cnt[cell] += int64(e.X)
	g.volHist[int(e.Sym)*(maxVolume+1)+int(e.Volume)] += int64(e.X)
	g.seen[e.Sym] = true
	if g.keep {
		g.log = append(g.log, e)
	}
}

// Insert generates one insertion (the preload phase is inserts only).
func (g *Gen) Insert() Event {
	e := Event{
		Sym:    int32(g.intn(g.w.Partitions)),
		Price:  int32(g.intn(g.w.Levels) + 1),
		Volume: int32(g.intn(maxVolume) + 1),
		X:      1,
	}
	g.live = append(g.live, e)
	g.account(e)
	return e
}

// Next generates one steady-state event: a delete of a live row half the
// time, an insert otherwise, so the relation stays near its preloaded size.
func (g *Gen) Next() Event {
	if len(g.live) == 0 || g.next()&1 == 0 {
		return g.Insert()
	}
	i := g.intn(len(g.live))
	e := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	e.X = -1
	g.account(e)
	return e
}

// MarkerSym is the reserved partition markers go to.
func (g *Gen) MarkerSym() int32 { return int32(g.w.Partitions) }

// Marker generates the next marker: one (price 1, volume 1) row into the
// reserved partition. Such rows always qualify under query 0, whose result
// for that partition is therefore the number of markers applied so far.
func (g *Gen) Marker() Event {
	e := Event{Sym: g.MarkerSym(), Price: 1, Volume: 1, X: 1}
	g.account(e)
	g.markers++
	return e
}

// Live reports the current number of live generated rows (markers excluded).
func (g *Gen) Live() int { return len(g.live) }

// Expect evaluates one query naively over the generator's relation state:
// per partition, the total inner volume, then a single ascending pass over
// the price levels accumulating the prefix volume. It shares no code with
// the engine, so agreement is evidence rather than tautology. All sums are
// integers far below 2^53, so the float64 results are exact and comparable
// bit for bit with the server's.
func (g *Gen) Expect(q QuerySpec) (float64, []engine.GroupResult) {
	var groups []engine.GroupResult
	var totSum, totCnt int64
	for sym := 0; sym <= g.w.Partitions; sym++ {
		if !g.seen[sym] {
			continue
		}
		var sum, cnt int64
		if !q.HasResidual || sym > q.ResidualSym {
			sum, cnt = g.partition(q, sym)
		}
		totSum += sum
		totCnt += cnt
		groups = append(groups, engine.GroupResult{Key: []float64{float64(sym)}, Value: finish(q.Agg, sum, cnt)})
	}
	return finish(q.Agg, totSum, totCnt), groups
}

// partition returns the qualifying rows' summed price*volume and count.
func (g *Gen) partition(q QuerySpec, sym int) (sum, cnt int64) {
	var inner int64
	hist := g.volHist[sym*(maxVolume+1) : (sym+1)*(maxVolume+1)]
	for v := 1; v <= maxVolume; v++ {
		if !q.HasInner || v > q.InnerMinVol {
			inner += int64(v) * hist[v]
		}
	}
	thr := q.Threshold * float64(inner)
	var prefix int64
	base := sym * g.w.Levels
	for p := 0; p < g.w.Levels; p++ {
		if g.cnt[base+p] == 0 {
			continue
		}
		prefix += g.vol[base+p]
		if thr < float64(prefix) {
			sum += int64(p+1) * g.vol[base+p]
			cnt += g.cnt[base+p]
		}
	}
	return sum, cnt
}

func finish(agg string, sum, cnt int64) float64 {
	switch agg {
	case "count":
		return float64(cnt)
	case "avg":
		if cnt == 0 {
			return 0
		}
		return float64(sum) / float64(cnt)
	}
	return float64(sum)
}
