package serve

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// Partitions is an append-only partition dictionary: it gives every distinct
// normalized partition key it is shown a dense id, and remembers the key's
// FNV shard hash. Route resolves a batch's keys once, so every service
// routing by the dictionary's ids finds an event's shard by a stored hash
// and its partition by indexing a slice, however many services the batch
// fans out to (a catalog's state sets share one dictionary). Ids live in
// memory only — snapshots, logs and the wire carry key values — and grow
// with the distinct keys ever routed or restored, the bound the services'
// partitions already have.
type Partitions struct {
	cols []string
	mu   sync.Mutex
	// keys holds id i's normalized key at keys[i*k : (i+1)*k] (k = len(cols)).
	// It is append-only and its elements are never rewritten, so the key
	// slices handed to shard workers stay valid when it regrows.
	keys []float64
	hash []uint64 // by id: hashVals of its key
	// table is an open-addressing index on hash: id+1 per used cell, 0 for
	// an empty one, at most half full; its length is a power of two.
	table []int32
	// Route's scratch: the source schema last routed with its
	// partition-column slots, a key buffer, and the run of each id in the
	// batch being routed (run index + 1; 0 when absent, as every entry is
	// again once Route returns).
	src   *query.Schema
	slots []int
	kb    []float64
	runOf []int32
	// edge is the routing of the map edge (Service.ApplyBatch), which lays
	// events out under mu.
	edge Routing
}

// NewPartitions returns an empty dictionary over the partition columns cols.
func NewPartitions(cols []string) *Partitions {
	return &Partitions{cols: cols, table: make([]int32, 16)}
}

// key returns id's key. Callers hold mu.
func (d *Partitions) key(id int32) []float64 {
	k := len(d.cols)
	return d.keys[int(id)*k : (int(id)+1)*k : (int(id)+1)*k]
}

// resolve returns the id of key (normalized), adding it when it is new.
// Callers hold mu.
func (d *Partitions) resolve(key []float64) int32 {
	h := hashVals(key)
	mask := len(d.table) - 1
	i := int(h) & mask
	for ; d.table[i] != 0; i = (i + 1) & mask {
		if id := d.table[i] - 1; d.hash[id] == h && sameBits(d.key(id), key) {
			return id
		}
	}
	id := int32(len(d.hash))
	d.keys = append(d.keys, key...)
	d.hash = append(d.hash, h)
	d.table[i] = id + 1
	if 2*len(d.hash) > len(d.table) {
		d.table = make([]int32, 2*len(d.table))
		mask = len(d.table) - 1
		for id, h := range d.hash {
			i := int(h) & mask
			for d.table[i] != 0 {
				i = (i + 1) & mask
			}
			d.table[i] = int32(id) + 1
		}
	}
	return id
}

// sameBits reports whether two keys hold the same bit patterns: key identity
// once both are normalized.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// slotsFor returns the slot of each partition column in src, refusing a
// schema that lacks one. Callers hold mu.
func (d *Partitions) slotsFor(src *query.Schema) ([]int, error) {
	if d.src == src {
		return d.slots, nil
	}
	slots := make([]int, len(d.cols))
	for j, c := range d.cols {
		i, ok := src.Slot(c)
		if !ok {
			return nil, fmt.Errorf("serve: source schema %v lacks partition column %q", src.Cols(), c)
		}
		slots[j] = i
	}
	d.src, d.slots = src, slots
	return slots, nil
}

// Routing is one batch's partition routing, built by Partitions.Route and
// consumed by the ApplyRows of every service taking ids from the same
// dictionary: the batch's partitions in order of first occurrence, each with
// its rows in batch order. Reuse one per ingesting goroutine: routing
// allocates nothing once its buffers have grown.
type Routing struct {
	d    *Partitions
	runs []run
	// rows holds the batch's row indices grouped by run: run r's are
	// rows[runs[r-1].end:runs[r].end].
	rows []int32
	at   []int32 // scratch: each row's run
}

// run is one partition's share of a routed batch.
type run struct {
	id   int32
	end  int32
	hash uint64 // the partition's shard hash
}

// Route resolves the partition of every row of rows, laid out under src,
// into rt, adding the keys the dictionary has not seen, and groups the rows
// by partition in order of first occurrence. Keys are normalized first
// (normalizeVals), so -0 and +0, or two NaN payloads, are one partition. It
// fails only when src lacks a partition column.
func (d *Partitions) Route(src *query.Schema, rows *engine.Rows, rt *Routing) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	slots, err := d.slotsFor(src)
	if err != nil {
		return err
	}
	d.route(rows.Len(), func(i int, buf []float64) []float64 {
		_, row := rows.At(i)
		return readKey(buf, row, slots)
	}, rt)
	return nil
}

// route resolves and groups n events into rt; keyOf appends event i's key
// to buf (not yet normalized). The grouping is a counting sort, so each
// run's rows keep their batch order. Callers hold mu.
func (d *Partitions) route(n int, keyOf func(i int, buf []float64) []float64, rt *Routing) {
	rt.d, rt.runs, rt.at = d, rt.runs[:0], rt.at[:0]
	for i := 0; i < n; i++ {
		d.kb = normalizeVals(keyOf(i, d.kb[:0]))
		id := d.resolve(d.kb)
		if int(id) >= len(d.runOf) {
			d.runOf = append(d.runOf, make([]int32, len(d.hash)-len(d.runOf))...)
		}
		r := d.runOf[id]
		if r == 0 {
			rt.runs = append(rt.runs, run{id: id, hash: d.hash[id]})
			r = int32(len(rt.runs))
			d.runOf[id] = r
		}
		rt.runs[r-1].end++ // a count until the offsets below
		rt.at = append(rt.at, r-1)
	}
	var off int32
	for i := range rt.runs {
		c := rt.runs[i].end
		rt.runs[i].end = off // the run's fill cursor
		off += c
		d.runOf[rt.runs[i].id] = 0
	}
	rt.rows = slices.Grow(rt.rows[:0], n)[:n]
	for i, r := range rt.at {
		rt.rows[rt.runs[r].end] = int32(i)
		rt.runs[r].end++
	}
}

// keyOf returns id's key: what a shard worker creating id's partition takes
// as the partition's key values.
func (d *Partitions) keyOf(id int32) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.key(id)
}

// restore resolves a restored partition's key (normalized) and returns its
// id and the dictionary's copy of the key with its shard hash.
func (d *Partitions) restore(key []float64) (int32, []float64, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.resolve(key)
	return id, d.key(id), d.hash[id]
}
