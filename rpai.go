// Package rpai is the public API of the RPAI library — a Go implementation
// of "Efficient Incrementalization of Correlated Nested Aggregate Queries
// using Relative Partial Aggregate Indexes" (SIGMOD 2022).
//
// It re-exports the stable surface of the internal packages:
//
//   - the RPAI tree and the aggregate-index abstraction of the ablations
//     (the RPAI tree against the PAI map),
//   - the query AST, the SQL parser for the paper's grammar fragment, and
//   - the incremental executors (aggregate-index optimization, general
//     algorithm) and the naive re-evaluation oracle.
//
// A minimal end-to-end use:
//
//	q, err := rpai.ParseQuery(`
//	    SELECT Sum(b.price * b.volume) FROM bids b
//	    WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
//	          < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`)
//	ex, err := rpai.NewExecutor(q)
//	ex.Apply(rpai.Insert(rpai.Tuple{"price": 10, "volume": 3}))
//	total := ex.Result()
//
// See the examples directory for full programs and DESIGN.md for the mapping
// from the paper's sections to packages.
package rpai

import (
	"rpai/internal/aggindex"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/rpai"
	"rpai/internal/sqlparse"
)

// Tree is the Relative Partial Aggregate Index tree (the paper's section 3):
// an ordered map from aggregate values to aggregate values with O(log n)
// prefix sums (GetSum) and O(log n) key-range shifts (ShiftKeys).
type Tree = rpai.Tree

// NewTree returns an empty RPAI tree.
func NewTree() *Tree { return rpai.New() }

// DecodeTree restores a tree from a snapshot written with Tree.Encode.
var DecodeTree = rpai.Decode

// Index is the aggregate-index abstraction shared by all implementations.
type Index = aggindex.Index

// IndexKind selects an aggregate-index implementation.
type IndexKind = aggindex.Kind

// Available index implementations.
const (
	IndexArena = aggindex.KindArena
	IndexPAI   = aggindex.KindPAI
)

// NewIndex returns an empty aggregate index of the given kind.
func NewIndex(kind IndexKind) Index { return aggindex.New(kind) }

// Query is an aggregate query in the paper's grammar fragment (section 4.1).
type Query = query.Query

// Tuple is one streamed record.
type Tuple = query.Tuple

// ParseQuery parses a query in the supported SQL dialect (the syntax of the
// paper's examples; see package sqlparse).
func ParseQuery(sql string) (*Query, error) { return sqlparse.Parse(sql) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(sql string) *Query { return sqlparse.MustParse(sql) }

// Event is one insert (X=+1) or delete (X=-1) of a tuple.
type Event = engine.Event

// Insert builds an insertion event.
func Insert(t Tuple) Event { return engine.Insert(t) }

// Delete builds a deletion event retracting a previously inserted tuple.
func Delete(t Tuple) Event { return engine.Delete(t) }

// Executor incrementally maintains a query result under events.
type Executor = engine.Executor

// GroupedExecutor additionally emits per-group results for queries with
// GROUP BY columns.
type GroupedExecutor = engine.GroupedExecutor

// GroupResult is one group of a grouped query's output.
type GroupResult = engine.GroupResult

// NewExecutor plans and builds the best incremental executor for the query:
// a PAI map for equality correlations, a level tree (an RPAI keyed by price
// whose correlated sums are weight-lane prefix sums) for correlated ranges,
// the general algorithm of section 4.2 otherwise.
func NewExecutor(q *Query) (Executor, error) { return engine.New(q) }

// NewNaiveExecutor returns the re-evaluation oracle for a query.
func NewNaiveExecutor(q *Query) Executor { return engine.NewNaive(q) }
