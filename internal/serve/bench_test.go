package serve

import (
	"math/rand"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// BenchmarkShardCommit times the publish layer in process: one shard owning
// 2 048 partitions, fed 128-event batches over random partitions (one commit
// each, about 124 dirty partitions), with 0 and with 8 subscribers reading
// every frame, and with two lanes — the plan's own and one threshold variant
// (SetProbes), as a catalog set serving a founder and its variant publishes.
// The stalled cases attach 8 Buffer-1 subscribers that never read to shards
// of 256 and 4 096 partitions (stalled=0 is the same shard with none, the
// baseline the subscribers' share is read against): every publication is
// offered to slots that already hold a pending frame, the steady state of a
// lagging reader, whose cost should follow the batch, not the partition
// count. The backlog case runs at the default drain bound (benchBacklog),
// the parts=8,events=4 case is the other extreme (benchSmallBatches).
//
// It reports ns/event (routing, apply, lane refresh, publication and, with
// subscribers, the slot offers and frame delivery) and commits/event, the
// shard's Flushed over its Applied: a count that repeats exactly, where
// ns/event moves with the host. Allocation is TestAllocGuard*'s business.
func BenchmarkShardCommit(b *testing.B) {
	founder := engine.ProbeSpec{Kind: query.Sum, Const: 0.75}
	variant := engine.ProbeSpec{Kind: query.Sum, Const: 0.9}
	for _, tc := range []struct {
		name    string
		parts   int
		subs    int
		stalled bool
		lanes   []engine.ProbeSpec
	}{
		{"subs=0", commitParts, 0, false, nil},
		{"subs=8", commitParts, 8, false, nil},
		{"lanes=2", commitParts, 0, false, []engine.ProbeSpec{founder, variant}},
		{"stalled=0,parts=256", 256, 0, true, nil},
		{"stalled=8,parts=256", 256, 8, true, nil},
		{"stalled=0,parts=4096", 4096, 0, true, nil},
		{"stalled=8,parts=4096", 4096, 8, true, nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc, ring := commitService(b, tc.parts, 64, commitBatch)
			if err := svc.SetProbes(tc.lanes); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tc.subs; i++ {
				opt := SubOptions{}
				if tc.stalled {
					opt.Buffer = 1
				}
				sub, err := svc.Subscribe(opt)
				if err != nil {
					b.Fatal(err)
				}
				if !tc.stalled {
					go func() {
						for range sub.Frames() {
						}
					}()
				}
			}
			if err := svc.Drain(); err != nil {
				b.Fatal(err)
			}
			before := svc.Stats()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.ApplyBatch(ring[i%len(ring)]); err != nil {
					b.Fatal(err)
				}
			}
			reportCommits(b, svc, before)
		})
	}
	b.Run("backlog", benchBacklog)
	b.Run("parts=8,events=4", benchSmallBatches)
}

// reportCommits drains svc, stops the timer and reports ns/event and
// commits/event over what its one shard applied since before.
func reportCommits(b *testing.B, svc *Service, before ShardStats) {
	b.Helper()
	if err := svc.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	after := svc.Stats()[0]
	events := float64(after.Applied - before.Applied)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Flushed-before.Flushed)/events, "commits/event")
}

// backlogBoxes is how many 128-event batches benchBacklog queues behind each
// hold: 768 events, under the default bound, so the worker drains them all
// into one commit.
const backlogBoxes = 6

// benchBacklog is the group commit: one shard of 2 048 partitions at the
// default drain bound, held by a control request while backlogBoxes ring
// batches and a drain barrier queue behind it, then released. Each
// iteration is one commit, for the whole backlog (the hold's control
// request commits nothing, so it publishes nothing), where a bound below
// 128 events would commit each box alone.
func benchBacklog(b *testing.B) {
	svc, ring := commitService(b, commitParts, 64, 0)
	before := svc.Stats()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release := holdShard(svc, 0)
		for j := 0; j < backlogBoxes; j++ {
			if err := svc.ApplyBatch(ring[(i*backlogBoxes+j)%len(ring)]); err != nil {
				b.Fatal(err)
			}
		}
		release()
	}
	reportCommits(b, svc, before)
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
