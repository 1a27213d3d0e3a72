package engine

import (
	"fmt"
	"testing"

	"rpai/internal/query"
	"rpai/internal/sqlparse"
)

// TestAdmitKey pins what AdmitKey identifies: the expressions Admit checks
// and the slots it reads them from. Variants differing only in an inner
// filter (which admission does not read) share a key; a different aggregate
// term, a plan with other checks, or the same checks read from other slots
// do not.
func TestAdmitKey(t *testing.T) {
	vwap := func(agg string, k int) *query.Query {
		return sqlparse.MustParse(fmt.Sprintf(`SELECT SUM(%s) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1 WHERE b1.volume > %d)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`, agg, k))
	}
	nested := sqlparse.MustParse(`SELECT SUM(b.volume) FROM bids b
WHERE b.volume > 0.001 * (SELECT SUM(b1.volume) FROM bids b1)
AND 0.5 * (SELECT COUNT(*) FROM bids b2) <= (SELECT COUNT(*) FROM bids b3 WHERE b3.price <= b.price)`)
	sch := query.NewSchema("sym", "price", "volume")
	key := func(q *query.Query, s *query.Schema) string {
		t.Helper()
		p, err := Prepare(q, s)
		if err != nil {
			t.Fatal(err)
		}
		return p.AdmitKey()
	}
	base := key(vwap("b.price * b.volume", 0), sch)
	if got := key(vwap("b.price * b.volume", 7), sch); got != base {
		t.Errorf("inner-filter variant: key %q, want %q", got, base)
	}
	for name, got := range map[string]string{
		"other term":      key(vwap("b.price", 0), sch),
		"general plan":    key(nested, sch),
		"columns swapped": key(vwap("b.price * b.volume", 0), query.NewSchema("sym", "volume", "price")),
	} {
		if got == base {
			t.Errorf("%s: key %q equals the base's", name, got)
		}
	}
}
