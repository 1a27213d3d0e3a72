package serve

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkShardCommit times the publish layer in process: one shard owning
// 2 048 partitions, fed 128-event batches over random partitions (one commit
// each, about 124 dirty partitions), with 0 and with 8 subscribers reading
// every frame. It reports ns/event (routing, apply, publication and, with
// subscribers, the shared delta runs and their delivery) and B/event
// allocated process-wide, the publish-side counterpart of the engine's
// BenchmarkRelStateApply.
func BenchmarkShardCommit(b *testing.B) {
	for _, subs := range []int{0, 8} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			svc, ring := commitService(b, 64)
			for i := 0; i < subs; i++ {
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
