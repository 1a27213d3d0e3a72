package serve

import (
	"testing"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestForQueryMissingPartitionColumn pins the semantics of events whose
// tuples lack the partition column: query.Tuple is a map, so the missing
// column reads as 0 and all such events share the zero-keyed partition —
// they are accepted, not dropped or refused. The test mixes keyed and
// unkeyed events and checks the unkeyed ones aggregate exactly like an
// explicit sym=0 partition would.
func TestForQueryMissingPartitionColumn(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 3, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	withKey := symEvents(31, 400, 5) // sym in 0..4, including explicit sym=0
	var noKey []engine.Event
	for _, e := range symEvents(32, 200, 1) {
		tup := query.Tuple{}
		for c, v := range e.Tuple {
			if c != "sym" {
				tup[c] = v
			}
		}
		noKey = append(noKey, engine.Event{X: e.X, Tuple: tup})
	}
	applyEach(t, svc, withKey)
	if err := svc.ApplyBatch(noKey); err != nil {
		t.Fatalf("events without the partition column rejected: %v", err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Reference: the keyless events join the sym=0 partition.
	want := serialReference(t, q, append(append([]engine.Event(nil), withKey...), noKey...))
	got := groupedMap(svc)
	if len(got) != len(want) {
		t.Fatalf("%d partitions, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("partition %v = %v, want %v", k, got[k], w)
		}
	}
}

// TestDrainBeforeAnyEvent pins the empty-service surface: Drain with zero
// events applied must return promptly with no error, Result must be 0, and
// ResultGrouped must be empty (no phantom partitions) — for both a fresh
// service and one restored from the checkpoint of an empty service.
func TestDrainBeforeAnyEvent(t *testing.T) {
	run := func(t *testing.T, svc *Service) {
		if err := svc.Drain(); err != nil {
			t.Fatalf("Drain on empty service: %v", err)
		}
		if got := svc.Result(); got != 0 {
			t.Fatalf("empty Result = %v, want 0", got)
		}
		if groups := svc.ResultGrouped(); len(groups) != 0 {
			t.Fatalf("empty ResultGrouped has %d groups", len(groups))
		}
		for _, st := range svc.Stats() {
			if st.Applied != 0 || st.Partitions != 0 {
				t.Fatalf("empty service stats: %+v", st)
			}
		}
	}
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	t.Run("in-memory", func(t *testing.T) { run(t, svc) })
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		if err := svc.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverForQuery(dir, vwapSpec(), []string{"sym"}, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		run(t, rec)
	})
}

// TestForQueryValidation pins constructor errors: no partition columns, and
// an invalid query, both fail up front.
func TestForQueryValidation(t *testing.T) {
	if _, err := ForQuery(vwapSpec(), nil, Options{}); err == nil {
		t.Fatal("ForQuery with no partition columns succeeded")
	}
	invalid := &query.Query{
		Agg: query.Col("price"),
		Preds: []query.Predicate{{
			Left:  query.ValSub(1, &query.Subquery{Kind: query.Min, Of: query.Col("price")}),
			Op:    query.Lt,
			Right: query.ValSub(1, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
		}},
	}
	if _, err := ForQuery(invalid, []string{"sym"}, Options{}); err == nil {
		t.Fatal("ForQuery with a non-streamable query succeeded")
	}
}
