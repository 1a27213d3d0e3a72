package serve

import (
	"fmt"
	"sync"

	"rpai/internal/engine"
)

// View materializes a subscription's frame stream back into grouped results:
// feed every received DeltaFrame to Apply and Grouped returns exactly what
// ResultGrouped would have returned on the service at the same per-shard
// versions. It detects gaps — an incremental frame whose Base is not the
// shard's current version cannot be applied — so the differential tests can
// assert the protocol never requires a frame the subscriber did not get.
type View struct {
	mu     sync.Mutex
	shards map[int]*viewShard
}

type viewShard struct {
	version uint64
	groups  map[string]engine.GroupResult
}

// NewView returns an empty view (every shard at version 0).
func NewView() *View {
	return &View{shards: make(map[int]*viewShard)}
}

// Apply folds one frame into the view. A Full frame replaces the shard's
// state from any base and at any version — a service that restarted, or a
// follower that rebuilt its state, reseeds under a new epoch whose versions
// start over; an incremental frame upserts and must extend the shard's
// current version exactly.
func (v *View) Apply(f DeltaFrame) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	vs := v.shards[f.Shard]
	if vs == nil {
		vs = &viewShard{groups: make(map[string]engine.GroupResult)}
		v.shards[f.Shard] = vs
	}
	if f.Full {
		clear(vs.groups)
	} else if f.Base != vs.version {
		return fmt.Errorf("serve: view shard %d: delta gap: frame base %d, view at %d", f.Shard, f.Base, vs.version)
	}
	for _, g := range f.Groups {
		vs.groups[string(encodeKey(nil, g.Key))] = g
	}
	vs.version = f.Version
	return nil
}

// Grouped returns the view's merged grouped results, sorted by partition key
// like Service.ResultGrouped.
func (v *View) Grouped() []engine.GroupResult {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []engine.GroupResult
	for _, vs := range v.shards {
		for _, g := range vs.groups {
			out = append(out, g)
		}
	}
	engine.SortGroups(out)
	return out
}

// Versions returns the view's per-shard versions, the resume argument for a
// reconnecting subscriber (pair with the service epoch).
func (v *View) Versions() []ShardVersion {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]ShardVersion, 0, len(v.shards))
	for i, vs := range v.shards {
		out = append(out, ShardVersion{Shard: i, Version: vs.version})
	}
	return out
}
