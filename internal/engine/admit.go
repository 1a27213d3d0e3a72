package engine

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadEvent is wrapped by every error an admission check returns.
var ErrBadEvent = errors.New("engine: event cannot be maintained")

// Admit tells whether the executors p builds can maintain an event, given as
// its weight x and a row of p's schema (or of a schema extending it).
// Executors assume it. The relation-state executor keys its level tree by the
// key column, which must be finite, as must the general algorithm's level-tree
// keys. Under a correlated predicate it reads each level's correlated
// aggregate as a prefix sum of the inner weights and finds a threshold's
// qualifying levels by descending on those sums, which needs them monotone —
// so every weight must be positive, and a non-positive one panics in apply.
// Inexact weights (0.1 and the like) are admitted and can no longer panic the
// index: no key is derived from arithmetic. What they can still do is round a
// prefix sum that ties the threshold in exact arithmetic to either side of it,
// as the naive oracle's own sums may round it differently (DESIGN §4b). A
// non-finite term or X poisons a sum for good. A server therefore runs the
// check on input it did not generate before the event is logged or applied —
// a refused event must leave no trace, or replaying the log fails the same
// way.
//
// The check reads the plan Prepare picked, so it cannot disagree with
// execution.
func (p *Prepared) Admit(x float64, row []float64) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(x) {
		return fmt.Errorf("%w: X is %v", ErrBadEvent, x)
	}
	if v := p.term(row); !finite(v) {
		return fmt.Errorf("%w: aggregate term %s is %v", ErrBadEvent, p.q.Agg, v)
	}
	if p.key < 0 {
		for _, key := range p.levelKeys {
			if v := key(row); !finite(v) {
				return fmt.Errorf("%w: a level-tree key of the general algorithm is %v", ErrBadEvent, v)
			}
		}
		return nil
	}
	if k := row[p.key]; !finite(k) {
		return fmt.Errorf("%w: key column %s is %v", ErrBadEvent, p.rel.plan.keyCol, k)
	}
	if p.weight != nil {
		if w := p.weight(row); !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: inner contribution %s is %v, must be positive and finite", ErrBadEvent, p.rel.plan.corr.Of, w)
		}
	}
	return nil
}
