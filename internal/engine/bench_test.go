package engine

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"rpai/internal/query"
	"rpai/internal/stream"
)

// BenchmarkRelStateApply measures the executor every inequality correlation
// runs on — relStateExec under VWAP, the planner's pick — at the stack
// benchmark's geometry.
//
//   - levels=50000 is deep-index: 2 partitions (one executor each) of 50 000
//     price levels, 100 000 resident rows, so about two rows a level and
//     deletes regularly empty a level and inserts create one.
//   - levels=16 is wide-shallow's tree (16 keys), a single partition of it.
//
// Inserts and deletes alternate, so the state stays at its resident size;
// one op is one event through ApplyBatch in batches of 256.
func BenchmarkRelStateApply(b *testing.B) {
	for _, g := range []struct{ partitions, levels, rows int }{
		{2, 50000, 100000},
		{1, 16, 48},
	} {
		b.Run("levels="+strconv.Itoa(g.levels), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			execs := make([]BatchExecutor, g.partitions)
			live := make([][]query.Tuple, g.partitions)
			for p := range execs {
				ex, err := New(vwapSpec())
				if err != nil {
					b.Fatal(err)
				}
				execs[p] = ex.(BatchExecutor)
			}
			row := func() query.Tuple {
				return query.Tuple{"price": float64(rng.Intn(g.levels) + 1), "volume": float64(rng.Intn(100) + 1)}
			}
			for i := 0; i < g.rows; i++ {
				p := i % g.partitions
				t := row()
				live[p] = append(live[p], t)
				execs[p].Apply(Insert(t))
			}
			// A fixed cycle of events, built outside the timer: per partition,
			// alternately retire a random resident row and admit a fresh one;
			// then the same batches undone (reversed, inserts and deletes
			// swapped), so every lap of the cycle starts from the preloaded
			// state and every delete meets a resident row.
			const batch = 256
			type step struct {
				ex  BatchExecutor
				evs []Event
			}
			cycle := make([]step, 64*g.partitions)
			for i := range cycle {
				p := i % g.partitions
				evs := make([]Event, batch)
				for j := range evs {
					if j%2 == 0 {
						k := rng.Intn(len(live[p]))
						evs[j] = Delete(live[p][k])
						live[p][k] = live[p][len(live[p])-1]
						live[p] = live[p][:len(live[p])-1]
					} else {
						t := row()
						live[p] = append(live[p], t)
						evs[j] = Insert(t)
					}
				}
				cycle[i] = step{execs[p], evs}
			}
			for i := len(cycle) - 1; i >= 0; i-- {
				undo := make([]Event, batch)
				for j, e := range cycle[i].evs {
					undo[batch-1-j] = Event{X: -e.X, Tuple: e.Tuple}
				}
				cycle = append(cycle, step{cycle[i].ex, undo})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				st := cycle[n/batch%len(cycle)]
				st.ex.ApplyBatch(st.evs)
			}
		})
	}
}

// resultSink keeps BenchmarkGeneralApply's reads observable.
var resultSink float64

// BenchmarkGeneralApply measures the paper's general-algorithm shapes (SQ1,
// SQ2, NQ1, NQ2 on GeneralExec) and EQ1 on the PAI executor over a 64-level
// order-book trace (the configuration of bench.FinanceTrace). One op replays
// the whole trace into a fresh executor, each event applied and then read
// with Result, the paper's per-event maintenance loop; ns/event is the op's
// time over the trace's events. EQ1 reads the trace's price as its
// correlation column A and the volume as B.
func BenchmarkGeneralApply(b *testing.B) {
	resultSink = 0
	const events = 2000
	trace := stream.GenerateOrderBook(stream.OrderBookConfig{
		Seed: 1, Events: events, DeleteRatio: 0.05, PriceLevels: 64,
		BasePrice: 10000, Tick: 1, MaxVolume: 50,
	})
	evs := make([]Event, len(trace))
	for i, e := range trace {
		t := query.Tuple{"price": e.Rec.Price, "volume": e.Rec.Volume, "a": e.Rec.Price, "b": e.Rec.Volume}
		evs[i] = Event{X: 1, Tuple: t}
		if e.Op == stream.Delete {
			evs[i].X = -1
		}
	}
	for _, sh := range []struct {
		name  string
		query func() *query.Query
		build func(*query.Query) (Executor, error)
	}{
		{"sq1", sq1Spec, newGeneralExecutor},
		{"sq2", sq2Spec, newGeneralExecutor},
		{"nq1", nq1Spec, newGeneralExecutor},
		{"nq2", nq2Spec, newGeneralExecutor},
		{"eq1", eq1Spec, New},
	} {
		b.Run(sh.name, func(b *testing.B) {
			q := sh.query()
			b.ReportAllocs()
			start := time.Now()
			for n := 0; n < b.N; n++ {
				ex, err := sh.build(q)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range evs {
					ex.Apply(e)
					resultSink += ex.Result()
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}
