package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// BenchmarkShardCommit times the publish layer in process: one shard owning
// 2 048 partitions, fed 128-event batches over random partitions (one commit
// each, about 124 dirty partitions), with 0 and with 8 subscribers reading
// every frame, and with two lanes — the plan's own and one threshold variant
// (SetProbes), as a catalog set serving a founder and its variant publishes.
// It reports ns/event (routing, apply, lane refresh, publication and, with
// subscribers, the shared delta runs and their delivery) and B/event
// allocated process-wide, the publish-side counterpart of the engine's
// BenchmarkRelStateApply. The parts=8,events=4 sub-case is the other
// extreme (benchSmallBatches).
func BenchmarkShardCommit(b *testing.B) {
	founder := engine.ProbeSpec{Kind: query.Sum, Const: 0.75}
	variant := engine.ProbeSpec{Kind: query.Sum, Const: 0.9}
	for _, tc := range []struct {
		name  string
		subs  int
		lanes []engine.ProbeSpec
	}{
		{"subs=0", 0, nil},
		{"subs=8", 8, nil},
		{"lanes=2", 0, []engine.ProbeSpec{founder, variant}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc, ring := commitService(b, 64)
			if err := svc.SetProbes(tc.lanes); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tc.subs; i++ {
				sub, err := svc.Subscribe(SubOptions{})
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					for range sub.Frames() {
					}
				}()
			}
			if err := svc.Drain(); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.ApplyBatch(ring[i%len(ring)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := svc.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			events := float64(b.N * commitBatch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
		})
	}
	b.Run("parts=8,events=4", benchSmallBatches)
}

// benchSmallBatches feeds one shard owning 8 partitions of 1 024 price
// levels 4-event batches — a client applying a few events per call — with a
// drain bound of 64, so under backlog a commit drains up to sixteen boxes,
// most touching partitions an earlier box of the same commit touched. It
// times what a refresh per box rather than per commit would multiply.
func benchSmallBatches(b *testing.B) {
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 1, BatchSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewSource(7))
	ring := make([][]engine.Event, 4096)
	for i := range ring {
		ring[i] = make([]engine.Event, 4)
		for j := range ring[i] {
			ring[i][j] = allocTuple(float64(rng.Intn(8)), float64(1+rng.Intn(1024)))
		}
	}
	for _, batch := range ring {
		if err := svc.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.ApplyBatch(ring[i%len(ring)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/event")
}
