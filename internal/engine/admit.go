package engine

import (
	"errors"
	"fmt"
	"math"

	"rpai/internal/query"
)

// ErrBadEvent is wrapped by every error an admission check returns.
var ErrBadEvent = errors.New("engine: event cannot be maintained")

// Admission returns the check that tells whether the executor New builds for
// q can maintain an event at all. Executors assume it. The relation-state
// executor keys its level tree by the key column, which must be finite. Under
// a correlated predicate it reads each level's correlated aggregate as a
// prefix sum of the inner weights and finds a threshold's qualifying levels
// by descending on those sums, which needs them monotone — so every weight
// must be positive, and a non-positive one panics in apply. Inexact weights
// (0.1 and the like) are admitted and can no longer panic the index: no key
// is derived from arithmetic. What they can still do is round a prefix sum
// that ties the threshold in exact arithmetic to either side of it, as the
// naive oracle's own sums may round it differently (DESIGN §4b). A non-finite
// term or X poisons a sum for good. A server therefore runs the check on
// input it did not generate before the event is logged or applied — a
// refused event must leave no trace, or replaying the log fails the same way.
//
// The plan is read off a constructed executor (as Describe does), so the
// check cannot disagree with execution.
func Admission(q *query.Query) (func(Event) error, error) {
	ex, err := New(q)
	if err != nil {
		return nil, err
	}
	var (
		keyCol string     // key column of a relation-state plan's level tree
		weight query.Expr // its inner contribution, when summed rather than counted
	)
	if rx, ok := ex.(*relStateExec); ok {
		keyCol = rx.rs.plan.keyCol
		if rx.rs.plan.kind == PredCorrelated && rx.rs.plan.corr.Kind == query.Sum {
			weight = rx.rs.plan.corr.Of
		}
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return func(e Event) error {
		if !finite(e.X) {
			return fmt.Errorf("%w: X is %v", ErrBadEvent, e.X)
		}
		if v := q.Agg.Eval(e.Tuple); !finite(v) {
			return fmt.Errorf("%w: aggregate term %s is %v", ErrBadEvent, q.Agg, v)
		}
		if keyCol == "" {
			return nil
		}
		if k := e.Tuple[keyCol]; !finite(k) {
			return fmt.Errorf("%w: key column %s is %v", ErrBadEvent, keyCol, k)
		}
		if weight != nil {
			if w := weight.Eval(e.Tuple); !(w > 0) || math.IsInf(w, 0) {
				return fmt.Errorf("%w: inner contribution %s is %v, must be positive and finite", ErrBadEvent, weight, w)
			}
		}
		return nil
	}, nil
}
