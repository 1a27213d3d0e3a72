package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the benchmark
// around a call into a layer's public entry point (there are no spans inside
// the server yet). Start and End are nanoseconds since the tracer's origin;
// Parent indexes the span that caused this one (-1 for a root); spans of one
// batch share its Batch number; Events is the work the interval covered.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Batch  int64  `json:"batch"`
	Events int    `json:"events,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so call sites need no tracing-on check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent int, batch int64, events int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.origin).Nanoseconds(),
		End: end.Sub(t.origin).Nanoseconds(), Parent: parent, Batch: batch, Events: events})
	return len(t.spans) - 1
}

// open reserves a span whose end is not known yet (a phase that will parent
// the spans recorded while it runs); close fills the end in.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, now, now, parent, 0, 0)
}

func (t *tracer) close(i int, events int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
	t.spans[i].Events = events
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := json.NewEncoder(f)
	t.mu.Lock()
	err = bw.Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ladderPrefix names the spans of the in-process layer ladder. A rung is
// cumulative — it contains every rung below it — so its spans are not nested
// under the lower rung's; its self time is its total minus the rung below on
// the same events.
const ladderPrefix = "ladder/"

// ladderRungs is the stack from the bottom up.
var ladderRungs = []string{"aggindex", "engine", "serve", "catalog-1", "catalog-1+wal", "catalog-all", "wire", "wire+subs"}

// nameSummary aggregates the spans sharing one name.
type nameSummary struct {
	Name    string
	Count   int
	Events  int
	TotalNS int64
	SelfNS  int64
}

// summarise computes per-name totals and self times: a span's self time is
// its duration minus the part of it that its child spans cover (children may
// overlap one another, so the covered part is the union of their intervals).
func summarise(spans []Span) []nameSummary {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*nameSummary)
	var order []string
	for i, s := range spans {
		ns := byName[s.Name]
		if ns == nil {
			ns = &nameSummary{Name: s.Name}
			byName[s.Name] = ns
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		ns.Count++
		ns.Events += s.Events
		ns.TotalNS += dur
		ns.SelfNS += dur - covered(spans, children[i], s.Start, s.End)
	}
	out := make([]nameSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to the
// parent's [lo, hi].
func covered(spans []Span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var total int64
	end := lo
	for _, k := range kids {
		s, e := max(spans[k].Start, end), min(spans[k].End, hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// printSummary renders the per-layer table of a span file and the ladder's
// rung-by-rung deltas.
func printSummary(w io.Writer, spans []Span) {
	sums := summarise(spans)
	var rootNS int64
	for _, s := range spans {
		if s.Parent < 0 && !strings.HasPrefix(s.Name, ladderPrefix) {
			rootNS += s.End - s.Start
		}
	}
	fmt.Fprintf(w, "%-22s %8s %10s %12s %12s %7s\n", "span", "count", "events", "total_ms", "self_ms", "share")
	for _, s := range sums {
		if strings.HasPrefix(s.Name, ladderPrefix) {
			continue
		}
		share := 0.0
		if rootNS > 0 {
			share = 100 * float64(s.SelfNS) / float64(rootNS)
		}
		fmt.Fprintf(w, "%-22s %8d %10d %12.3f %12.3f %6.1f%%\n", s.Name, s.Count, s.Events,
			float64(s.TotalNS)/1e6, float64(s.SelfNS)/1e6, share)
	}
	rungs := ladderCosts(sums)
	if len(rungs) == 0 {
		return
	}
	top := rungs[len(rungs)-1].NSPerEvent
	fmt.Fprintf(w, "\n%-22s %8s %10s %12s %12s %7s\n", "ladder rung", "calls", "events", "ns/event", "self ns/ev", "share")
	for _, r := range rungs {
		fmt.Fprintf(w, "%-22s %8d %10d %12.1f %12.1f %6.1f%%\n", r.Rung, r.Calls, r.Events, r.NSPerEvent, r.SelfNS, 100*r.SelfNS/top)
	}
}

// rungCost is one ladder rung's cost per event and the part of it the rung
// adds over the one below.
type rungCost struct {
	Rung       string
	Calls      int
	Events     int
	NSPerEvent float64
	SelfNS     float64
}

// ladderCosts orders the ladder spans bottom-up and takes successive
// differences. "catalog-all" is the same layer as "catalog-1" with more
// registrations, so its delta is the fan-out cost of the extra queries.
func ladderCosts(sums []nameSummary) []rungCost {
	var out []rungCost
	below := 0.0
	for _, rung := range ladderRungs {
		for _, s := range sums {
			if s.Name != ladderPrefix+rung || s.Events == 0 {
				continue
			}
			per := float64(s.TotalNS) / float64(s.Events)
			out = append(out, rungCost{Rung: rung, Calls: s.Count, Events: s.Events, NSPerEvent: per, SelfNS: per - below})
			below = per
		}
	}
	return out
}

// summariseFile is the -summarise mode.
func summariseFile(w io.Writer, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spans []Span
	if err := json.Unmarshal(b, &spans); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	printSummary(w, spans)
	return nil
}
