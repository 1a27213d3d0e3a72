package rpai_test

import (
	"bytes"
	"testing"

	"rpai"
)

// TestFacadeTree exercises the re-exported tree API end to end, including
// snapshots.
func TestFacadeTree(t *testing.T) {
	tr := rpai.NewTree()
	tr.Put(10, 3)
	tr.Add(20, 4)
	tr.ShiftKeys(15, 5)
	if got := tr.GetSum(25); got != 7 {
		t.Fatalf("GetSum = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := rpai.DecodeTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Total() != tr.Total() {
		t.Fatal("snapshot round trip diverged")
	}
}

func TestFacadeIndexKinds(t *testing.T) {
	for _, kind := range []rpai.IndexKind{rpai.IndexArena, rpai.IndexBTree, rpai.IndexPAI, rpai.IndexSorted} {
		idx := rpai.NewIndex(kind)
		idx.Add(1, 2)
		idx.ShiftKeys(0, 10)
		if got := idx.GetSum(11); got != 2 {
			t.Fatalf("%s: GetSum = %v", kind, got)
		}
	}
	bt := rpai.NewBTree()
	bt.Add(5, 5)
	if got := bt.Total(); got != 5 {
		t.Fatalf("BTree Total = %v", got)
	}
}

// TestFacadeQueryPipeline runs the package-comment example.
func TestFacadeQueryPipeline(t *testing.T) {
	q, err := rpai.ParseQuery(`
	    SELECT Sum(b.price * b.volume) FROM bids b
	    WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	          < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := rpai.NewExecutor(q)
	if err != nil {
		t.Fatal(err)
	}
	ex.Apply(rpai.Insert(rpai.Tuple{"price": 10, "volume": 1}))
	ex.Apply(rpai.Insert(rpai.Tuple{"price": 20, "volume": 1}))
	ex.Apply(rpai.Insert(rpai.Tuple{"price": 30, "volume": 2}))
	if got := ex.Result(); got != 60 {
		t.Fatalf("Result = %v, want 60", got)
	}
	ex.Apply(rpai.Delete(rpai.Tuple{"price": 30, "volume": 2}))
	if got := ex.Result(); got != 20 {
		t.Fatalf("Result = %v, want 20", got)
	}
}

func TestFacadeGrouped(t *testing.T) {
	q := rpai.MustParseQuery(`
	    SELECT SUM(b.volume) FROM bids b
	    WHERE b.volume > 0.5 * (SELECT AVG(b1.volume) FROM bids b1)
	    GROUP BY b.broker`)
	ex, err := rpai.NewExecutor(q)
	if err != nil {
		t.Fatal(err)
	}
	ge, ok := ex.(rpai.GroupedExecutor)
	if !ok {
		t.Fatal("grouped query did not yield a GroupedExecutor")
	}
	ge.Apply(rpai.Insert(rpai.Tuple{"broker": 1, "volume": 10}))
	ge.Apply(rpai.Insert(rpai.Tuple{"broker": 2, "volume": 20}))
	groups := ge.ResultGrouped()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}
