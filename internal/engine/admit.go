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
// q can maintain an event at all. Executors assume it: the range-shift
// executor's index keys are running sums of the correlated subquery's inner
// weights, which keeps distinct levels on distinct keys only while every
// weight is positive, and it panics otherwise; a non-finite key, term or X
// either panics in the index or poisons a sum for good. A server therefore
// runs the check on input it did not generate before the event is logged or
// applied — a refused event must leave no trace, or replaying the log fails
// the same way.
//
// The plan is read off a constructed executor (as Describe does), so the
// check cannot disagree with execution.
func Admission(q *query.Query) (func(Event) error, error) {
	ex, err := New(q)
	if err != nil {
		return nil, err
	}
	var (
		keyCol string     // correlation column of a range-shift plan
		weight query.Expr // its inner contribution, when summed rather than counted
	)
	if rx, ok := ex.(*relStateExec); ok && rx.rs.plan.kind == PredCorrelated {
		keyCol = rx.rs.plan.keyCol
		if rx.rs.plan.corr.Kind == query.Sum {
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
			return fmt.Errorf("%w: correlation column %s is %v", ErrBadEvent, keyCol, k)
		}
		if weight != nil {
			if w := weight.Eval(e.Tuple); !(w > 0) || math.IsInf(w, 0) {
				return fmt.Errorf("%w: inner contribution %s is %v, must be positive and finite", ErrBadEvent, weight, w)
			}
		}
		return nil
	}, nil
}
