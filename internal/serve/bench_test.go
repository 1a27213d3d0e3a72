package serve

import (
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
// BenchmarkRelStateApply.
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
}
