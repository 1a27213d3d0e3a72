package bench

import (
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/sqlparse"
)

// sqlForms holds the SQL of every benchmark query the engine's grammar
// admits, as internal/queries documents it. MST and PSP join bids with
// asks and Q17/Q18 join TPC-H tables; the grammar has no FROM a, b, so
// they have no engine form.
var sqlForms = map[string]string{
	"vwap": `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`,
	"sq1": `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1 WHERE b1.volume <= b.volume)
	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`,
	"sq2": `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	      < (SELECT Sum(b2.volume) FROM bids b2 WHERE 2 * b2.price <= b.price)`,
	"nq1": `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	   < (SELECT Sum(b2.volume) FROM bids b2
	      WHERE b2.price <= b.price
	        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3)
	            < (SELECT Sum(b4.volume) FROM bids b4 WHERE b4.price <= b2.price))`,
	"nq2": `SELECT Sum(b.price * b.volume) FROM bids b
	WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1)
	   < (SELECT Sum(b2.volume) FROM bids b2
	      WHERE b2.price <= b.price
	        AND 0.5 * (SELECT Sum(b3.volume) FROM bids b3 WHERE b3.price <= b.price)
	            < (SELECT Sum(b4.volume) FROM bids b4 WHERE b4.price <= b2.price))`,
	"eq1": `SELECT Sum(r.A * r.B) FROM R r
	WHERE 0.5 * (SELECT Sum(r1.B) FROM R r1)
	    = (SELECT Sum(r2.B) FROM R r2 WHERE r2.A = r.A)`,
}

// HasSQL reports whether a benchmark query has an engine form.
func HasSQL(name string) bool { _, ok := sqlForms[name]; return ok }

// newEngineRunner plans name's SQL the way the server does (sqlparse, then
// engine.Prepare) and lays out n events, event i being event(i), each as
// a one-row batch for ApplyRows; a nil tuple is an event the query does not
// read (an ask, for a bids-only query) and becomes an empty batch. The rows
// are built here, so a replay times only ApplyRows and Result.
func newEngineRunner(name string, n int, event func(i int) (float64, query.Tuple)) *Runner {
	q := sqlparse.MustParse(sqlForms[name])
	schema := query.NewSchema(q.Columns()...)
	p, err := engine.Prepare(q, schema)
	if err != nil {
		panic("bench: " + name + ": " + err.Error())
	}
	rows := make([]engine.Rows, n)
	for i := range rows {
		rows[i].Reset(schema.Len())
		if x, t := event(i); t != nil {
			rows[i].Project(x, schema.Cols(), t)
		}
	}
	ex := p.New()
	return &Runner{Query: name, System: SysEngine, N: n,
		Apply: func(i int) { ex.ApplyRows(&rows[i]) }, Result: ex.Result}
}

// withEngine returns systems, plus SysEngine when name has a SQL form.
func withEngine(name string, systems ...System) []System {
	if HasSQL(name) {
		return append(systems, SysEngine)
	}
	return systems
}
