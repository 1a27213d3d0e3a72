package catalog

import (
	"fmt"
	"path/filepath"
	"testing"
)

// sqlVolumeVWAP sums a different term over sqlVWAP's predicate: a state of
// its own (the term shapes the maintained sums), but the same count side, so
// a COUNT(*) over that predicate may attach to either set.
const sqlVolumeVWAP = `SELECT SUM(b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`

// placement is one registration's place in its catalog: the state set it
// reads, who shares it and how, its state identity and probe plan, and the
// epochs its set's state is current through.
type placement struct {
	ID                                    QueryID
	SetID                                 uint64
	SharedWith, SharedExact, SharedFamily []QueryID
	StateKey, Probe                       string
	Since, StateSince                     uint64
}

func (p placement) String() string {
	type fields placement // no String method: %+v prints the fields
	return fmt.Sprintf("%+v", fields(p))
}

func placementOf(ex Explain, setID uint64) placement {
	return placement{ID: ex.ID, SetID: setID, SharedWith: ex.SharedWith, SharedExact: ex.SharedExact,
		SharedFamily: ex.SharedFamily, StateKey: ex.StateKey, Probe: ex.Probe, Since: ex.Since, StateSince: ex.StateSince}
}

// placements reports every registration's placement, ordered by QueryID.
func placements(c *Service) []string {
	var out []string
	stats := c.Stats()
	for i, ex := range c.List() {
		out = append(out, placementOf(ex, stats[i].SetID).String())
	}
	return out
}

// registerPlacement registers sql and reports where it landed.
func registerPlacement(t *testing.T, c *Service, sql string) placement {
	t.Helper()
	id, ex, err := c.Register(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range c.Stats() {
		if st.ID == id {
			return placementOf(ex, st.SetID)
		}
	}
	t.Fatalf("query %d missing from Stats", id)
	return placement{}
}

// TestPlacementSurvivesRestart pins placement as a function of the live
// registrations alone: at every step, a catalog recovered from a copy of the
// directory places every query, and the next registration, exactly where the
// live catalog does. The steps leave a canonical form whose only member has
// left while its set lives on; registering it again must not find that set
// through the departed member, but through the count-side identity, whose
// newest live set is the one SUM(b.volume) founded.
func TestPlacementSurvivesRestart(t *testing.T) {
	opt := Options{PartitionBy: []string{"sym"}, Shards: 2, Dir: filepath.Join(t.TempDir(), "cat")}
	cat, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	batches := chunk(catEvents(41, 96, 4), 16)
	steps := []struct {
		sql  string // registered when set
		drop int    // else: the position in ids of the query to unregister
	}{
		{sql: sqlVWAP},       // founds set 1
		{sql: sqlCountVWAP},  // joins set 1 through the count-side identity
		{sql: sqlVolumeVWAP}, // founds set 2, the newest set with that identity
		{drop: 1},            // COUNT(*) leaves; set 1 lives on
		{sql: sqlCountVWAP},  // lands where recovery puts it: set 2
	}
	var ids []QueryID
	var last placement
	for i, st := range steps {
		if err := cat.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		// Rotate first, so the recovered copy and the live catalog start the
		// same generation and their Since values are comparable.
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(Options{Dir: crashCopy(t, opt.Dir), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			got, want := placements(rec), placements(cat)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d, %s:\nrecovered %v\nlive      %v", i, when, got, want)
			}
		}
		check("before")
		if st.sql != "" {
			want := registerPlacement(t, cat, st.sql)
			if got := registerPlacement(t, rec, st.sql); got.String() != want.String() {
				t.Fatalf("step %d registers %q:\nrecovered %v\nlive      %v", i, st.sql, got, want)
			}
			ids = append(ids, want.ID)
			last = want
		} else {
			if err := cat.Unregister(ids[st.drop]); err != nil {
				t.Fatal(err)
			}
			if err := rec.Unregister(ids[st.drop]); err != nil {
				t.Fatal(err)
			}
		}
		check("after")
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if last.SetID != 2 {
		t.Fatalf("re-registered COUNT(*) landed in set %d, want set 2 (the newest live set with its count-side identity)", last.SetID)
	}
}
