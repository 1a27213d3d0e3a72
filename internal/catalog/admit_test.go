package catalog

import (
	"testing"
)

// TestAdmissionGroups pins the derived admission groups: sets whose checks
// read the same expressions at the same slots share one binding — the
// sixteen distinct vwapVariant sets differ only in an inner filter, which
// admission does not read, so they form one group — while a set with other
// checks (sqlNested's general algorithm, sqlEq's equality plan) has its own.
// A batch one group refuses is refused with exactly the error the first
// refusing set, in set order, reports; and the groups follow the live sets
// through an unregistration.
func TestAdmissionGroups(t *testing.T) {
	cat, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for k := 0; k < 16; k++ {
		if _, _, err := cat.Register(vwapVariant(k)); err != nil {
			t.Fatal(err)
		}
	}
	groups := func() (int, int) {
		cat.mu.RLock()
		defer cat.mu.RUnlock()
		return len(cat.admit), len(cat.setList)
	}
	if g, sets := groups(); g != 1 || sets != 16 {
		t.Fatalf("16 vwapVariant sets: %d admission groups over %d sets, want 1 over 16", g, sets)
	}
	nested, _, err := cat.Register(sqlNested)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Register(sqlEq); err != nil {
		t.Fatal(err)
	}
	if g, sets := groups(); g != 3 || sets != 18 {
		t.Fatalf("after sqlNested and sqlEq: %d admission groups over %d sets, want 3 over 18", g, sets)
	}

	for name, bad := range poisonBatches() {
		var want error
		var b Batch
		if err := cat.DecodeRecord(&b, encodeBatchRecord(nil, bad)); err != nil {
			t.Fatal(err)
		}
		cat.mu.RLock()
	sets:
		for _, set := range cat.setList {
			for i := 0; i < b.n; i++ {
				if want = set.prep.Admit(b.rows.At(i)); want != nil {
					break sets
				}
			}
		}
		cat.mu.RUnlock()
		err := cat.ApplyRecord(&b)
		if want == nil || err == nil || err.Error() != "catalog: batch refused: event 1: "+want.Error() {
			t.Fatalf("%s: ApplyRecord error %v, want the first refusing set's %v", name, err, want)
		}
	}

	if err := cat.Unregister(nested); err != nil {
		t.Fatal(err)
	}
	if g, sets := groups(); g != 2 || sets != 17 {
		t.Fatalf("after unregistering sqlNested: %d admission groups over %d sets, want 2 over 17", g, sets)
	}
}
