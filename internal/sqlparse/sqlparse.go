// Package sqlparse parses the SQL fragment of the paper's grammar (section
// 4.1) into package query's AST: single-relation aggregate queries whose
// predicates may contain correlated or uncorrelated nested aggregate
// subqueries.
//
// The dialect is exactly what the paper's examples use:
//
//	SELECT SUM(b.price * b.volume) FROM bids b
//	WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
//	      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)
//
// Aliases distinguish the outer relation from each subquery's inner
// relation: inside a subquery, columns qualified by the subquery's own alias
// are inner references, and columns qualified by the outer alias are the
// correlation (free) columns. Alias qualifiers are stripped in the resulting
// AST — tuples are flat column->value maps.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"rpai/internal/query"
)

// Parse parses one query in the supported fragment. Errors are positioned:
// the returned error wraps a *ParseError carrying the byte offset and the
// offending token, so callers (and wire clients receiving a registration
// rejection) can point at the exact spot in the input.
func Parse(input string) (*query.Query, error) {
	p := &parser{toks: lex(input)}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("sqlparse: %w", p.errf("trailing input"))
	}
	return q, nil
}

// ParseError is a positioned parse failure: Offset is the byte offset into
// the original input where the offending token starts, Token its text
// (empty at end of input). Use errors.As to recover it from Parse's error.
type ParseError struct {
	Offset int
	Token  string
	msg    string
}

// Error renders "<msg> at offset N (near <token>)".
func (e *ParseError) Error() string {
	near := "end of input"
	if e.Token != "" {
		near = fmt.Sprintf("%q", e.Token)
	}
	return fmt.Sprintf("%s at offset %d (near %s)", e.msg, e.Offset, near)
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(input string) *query.Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

// --- lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
	off  int // byte offset of the token's first character in the input
}

func lex(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(s) && (isIdentChar(rune(s[j]))) {
				j++
			}
			toks = append(toks, token{tokIdent, s[i:j], i})
			i = j
		case unicode.IsDigit(c) || c == '.' && i+1 < len(s) && unicode.IsDigit(rune(s[i+1])):
			j := i
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, s[i:j], i})
			i = j
		default:
			// Two-character operators first.
			if i+1 < len(s) {
				two := s[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					toks = append(toks, token{tokSymbol, two, i})
					i += 2
					continue
				}
			}
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", len(s)})
	return toks
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
	// outerAlias is the alias of the top-level relation; innerAlias the
	// current subquery's alias ("" at the top level).
	outerAlias string
	innerAlias string
	// midAlias is the enclosing subquery's alias while parsing a
	// second-level (nested) subquery; "" elsewhere.
	midAlias string
	// usedOuter/usedInner/usedMid record alias usage while parsing an
	// exprEither expression, for conjunct classification.
	usedOuter bool
	usedInner bool
	usedMid   bool
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) eof() bool { return p.peek().kind == tokEOF }

// errf builds a positioned error anchored at the current token.
func (p *parser) errf(format string, args ...any) error {
	return p.errAt(p.peek(), format, args...)
}

// errAt builds a positioned error anchored at a specific (usually already
// consumed) token.
func (p *parser) errAt(t token, format string, args ...any) error {
	return &ParseError{Offset: t.off, Token: t.text, msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q", sym)
	}
	return nil
}

// parseQuery parses the top level:
// SELECT SUM(expr) FROM rel alias [WHERE pred (AND pred)*].
func (p *parser) parseQuery() (*query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	kind, err := p.parseAggKind()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	// The outer alias is only known after FROM; resolve column ownership
	// lazily by parsing the aggregate expression after the FROM clause.
	aggStart := p.pos
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.kind == tokEOF:
			return nil, p.errf("unterminated aggregate expression")
		case t.kind == tokSymbol && t.text == "(":
			depth++
		case t.kind == tokSymbol && t.text == ")":
			depth--
		}
	}
	aggEnd := p.pos - 1
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if _, err := p.parseRelation(); err != nil {
		return nil, err
	}
	alias, err := p.parseAlias()
	if err != nil {
		return nil, err
	}
	p.outerAlias = alias

	// Re-parse the saved aggregate expression now that the alias is known.
	// COUNT takes the bare star (its term is the constant 1, so maintained
	// state is bitwise identical to a count index); SUM and AVG take an
	// expression over the outer tuple.
	var agg query.Expr
	if kind == query.Count {
		if aggEnd-aggStart != 1 || p.toks[aggStart].kind != tokSymbol || p.toks[aggStart].text != "*" {
			return nil, p.errAt(p.toks[aggStart], "COUNT supports only COUNT(*) at the top level")
		}
		agg = query.Const(1)
	} else {
		sub := &parser{
			toks:       append(append([]token(nil), p.toks[aggStart:aggEnd]...), token{kind: tokEOF, off: p.toks[aggEnd].off}),
			outerAlias: alias,
		}
		agg, err = sub.parseExpr(exprOuter)
		if err != nil {
			return nil, fmt.Errorf("in aggregate expression: %w", err)
		}
		if !sub.eof() {
			return nil, sub.errf("trailing tokens in aggregate expression")
		}
	}

	q := &query.Query{Agg: agg, Outer: kind}
	if p.acceptKeyword("WHERE") {
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, pred)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			colTok := p.peek()
			e, err := p.parseFactor(exprOuter)
			if err != nil {
				return nil, err
			}
			c, ok := e.(query.Col)
			if !ok {
				return nil, p.errAt(colTok, "GROUP BY supports plain columns only, found %s", e)
			}
			q.GroupBy = append(q.GroupBy, string(c))
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return q, nil
}

func (p *parser) parseRelation() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errAt(t, "expected relation name")
	}
	return t.text, nil
}

func (p *parser) parseAlias() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errAt(t, "expected relation alias")
	}
	return t.text, nil
}

func (p *parser) parseAggKind() (query.AggKind, error) {
	t := p.next()
	if t.kind != tokIdent {
		return 0, p.errAt(t, "expected aggregate function")
	}
	switch strings.ToUpper(t.text) {
	case "SUM":
		return query.Sum, nil
	case "COUNT":
		return query.Count, nil
	case "AVG", "AVERAGE":
		return query.Avg, nil
	case "MIN", "MAX":
		return 0, p.errAt(t, "aggregate must be SUM, COUNT, or AVG, found %s: MIN and MAX are not maintainable under deletions (section 4.2.5)", strings.ToUpper(t.text))
	}
	return 0, p.errAt(t, "unknown aggregate function %q", t.text)
}

// parsePredicate parses value θ value.
func (p *parser) parsePredicate() (query.Predicate, error) {
	left, err := p.parseValue()
	if err != nil {
		return query.Predicate{}, err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return query.Predicate{}, err
	}
	right, err := p.parseValue()
	if err != nil {
		return query.Predicate{}, err
	}
	return query.Predicate{Left: left, Op: op, Right: right}, nil
}

func (p *parser) parseCmpOp() (query.CmpOp, error) {
	t := p.next()
	if t.kind != tokSymbol {
		return 0, p.errAt(t, "expected comparison operator")
	}
	switch t.text {
	case "<":
		return query.Lt, nil
	case "<=":
		return query.Le, nil
	case "=":
		return query.Eq, nil
	case ">=":
		return query.Ge, nil
	case ">":
		return query.Gt, nil
	}
	return 0, p.errAt(t, "unknown comparison operator %q", t.text)
}

// parseValue parses one predicate side: [number *] (subquery | expr).
func (p *parser) parseValue() (query.Value, error) {
	// "number * (SELECT ...)" — a scaled subquery.
	if p.peek().kind == tokNumber {
		save := p.pos
		numTok := p.next()
		if p.acceptSymbol("*") && p.startsSubquery() {
			scale, err := strconv.ParseFloat(numTok.text, 64)
			if err != nil {
				return query.Value{}, p.errAt(numTok, "invalid number %q", numTok.text)
			}
			s, _, err := p.parseSubquery()
			if err != nil {
				return query.Value{}, err
			}
			return query.ValSub(scale, s), nil
		}
		p.pos = save
	}
	if p.startsSubquery() {
		s, _, err := p.parseSubquery()
		if err != nil {
			return query.Value{}, err
		}
		return query.ValSub(1, s), nil
	}
	e, err := p.parseExpr(exprOuter)
	if err != nil {
		return query.Value{}, err
	}
	return query.ValExpr(e), nil
}

func (p *parser) startsSubquery() bool {
	return p.peek().kind == tokSymbol && p.peek().text == "(" &&
		p.toks[p.pos+1].kind == tokIdent && strings.EqualFold(p.toks[p.pos+1].text, "SELECT")
}

// parseSubquery parses (SELECT agg(expr) FROM rel alias [WHERE conjuncts]).
// corrToMid reports that the subquery's correlation predicate references the
// enclosing subquery's alias rather than the outermost relation's (only
// possible for second-level subqueries, where it identifies the innermost
// aggregate of a nested condition).
func (p *parser) parseSubquery() (s *query.Subquery, corrToMid bool, err error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, false, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, false, err
	}
	kind, err := p.parseAggKind()
	if err != nil {
		return nil, false, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, false, err
	}
	// Save the aggregate expression tokens (alias unknown until FROM).
	ofStart := p.pos
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.kind == tokEOF:
			return nil, false, p.errf("unterminated subquery aggregate expression")
		case t.kind == tokSymbol && t.text == "(":
			depth++
		case t.kind == tokSymbol && t.text == ")":
			depth--
		}
	}
	ofEnd := p.pos - 1
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, false, err
	}
	if _, err := p.parseRelation(); err != nil {
		return nil, false, err
	}
	alias, err := p.parseAlias()
	if err != nil {
		return nil, false, err
	}

	s = &query.Subquery{Kind: kind}
	ofToks := p.toks[ofStart:ofEnd]
	isStar := len(ofToks) == 1 && ofToks[0].kind == tokSymbol && ofToks[0].text == "*"
	if kind == query.Count && isStar {
		// COUNT(*): no Of expression.
	} else {
		ip := &parser{
			toks:       append(append([]token(nil), ofToks...), token{kind: tokEOF, off: p.toks[ofEnd].off}),
			outerAlias: p.outerAlias,
			innerAlias: alias,
		}
		of, err := ip.parseExpr(exprInner)
		if err != nil {
			return nil, false, fmt.Errorf("in subquery aggregate expression: %w", err)
		}
		if !ip.eof() {
			return nil, false, ip.errf("trailing tokens in subquery aggregate expression")
		}
		s.Of = of
	}

	if p.acceptKeyword("WHERE") {
		savedInner := p.innerAlias
		p.innerAlias = alias
		for {
			cm, err := p.parseSubqueryConjunct(s)
			if err != nil {
				return nil, false, err
			}
			corrToMid = corrToMid || cm
			if !p.acceptKeyword("AND") {
				break
			}
		}
		p.innerAlias = savedInner
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, false, err
	}
	return s, corrToMid, nil
}

// conjunctSide is one side of a subquery WHERE conjunct: either a (scaled)
// subquery value or a scalar expression with its alias-usage classification.
type conjunctSide struct {
	isSub     bool
	val       query.Value // when isSub
	corrToMid bool        // when isSub: its correlation references the middle alias
	expr      query.Expr  // when !isSub
	usedOuter bool
	usedMid   bool
}

// parseSubqueryConjunct parses one AND-conjunct of a subquery's WHERE clause
// and classifies it:
//
//   - a conjunct with a subquery on either side becomes a second-level
//     nested condition (the NQ1/NQ2 shape),
//   - a scalar conjunct referencing the outer alias becomes the subquery's
//     correlation predicate (at most one is allowed),
//   - a scalar conjunct over inner columns and constants becomes an
//     inner-only filter, normalized to "expr θ constant" form.
//
// The returned flag reports that this conjunct correlates the subquery to
// the enclosing (middle) alias — meaningful only for second-level
// subqueries.
func (p *parser) parseSubqueryConjunct(s *query.Subquery) (bool, error) {
	left, err := p.parseConjunctSide()
	if err != nil {
		return false, err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return false, err
	}
	right, err := p.parseConjunctSide()
	if err != nil {
		return false, err
	}
	if left.isSub || right.isSub {
		return false, p.buildNestedCond(s, left, op, right)
	}
	switch {
	case left.usedOuter && right.usedOuter:
		return false, p.errf("subquery predicate references outer columns on both sides")
	case right.usedOuter || right.usedMid:
		if s.Where != nil {
			return false, p.errf("subquery has more than one correlation predicate")
		}
		s.Where = &query.CorrPred{Inner: left.expr, Op: op, Outer: right.expr}
		return right.usedMid, nil
	case left.usedOuter || left.usedMid:
		if s.Where != nil {
			return false, p.errf("subquery has more than one correlation predicate")
		}
		s.Where = &query.CorrPred{Inner: right.expr, Op: op.Flip(), Outer: left.expr}
		return left.usedMid, nil
	default:
		// Inner-only filter; normalize "l θ r" to "(l - r) θ 0" unless one
		// side is already constant.
		switch {
		case len(right.expr.Cols()) == 0:
			s.Filters = append(s.Filters, query.FilterPred{Inner: left.expr, Op: op, Value: right.expr.Eval(nil)})
		case len(left.expr.Cols()) == 0:
			s.Filters = append(s.Filters, query.FilterPred{Inner: right.expr, Op: op.Flip(), Value: left.expr.Eval(nil)})
		default:
			diff := query.BinOp{Op: query.OpSub, L: left.expr, R: right.expr}
			s.Filters = append(s.Filters, query.FilterPred{Inner: diff, Op: op, Value: 0})
		}
		return false, nil
	}
}

// buildNestedCond wires a subquery-valued conjunct into a NestedCond: the
// side whose subquery correlates to the middle alias is the innermost
// aggregate, the other side is the threshold. Structural soundness (operator
// form, shared column, SUM kinds) is enforced by Query.Validate.
func (p *parser) buildNestedCond(s *query.Subquery, left conjunctSide, op query.CmpOp, right conjunctSide) error {
	if s.Nested != nil {
		return p.errf("subquery has more than one nested condition")
	}
	if p.midAlias != "" {
		return p.errf("nested conditions are limited to two levels")
	}
	var inner, thr conjunctSide
	thetaThrFirst := op
	switch {
	case left.isSub && left.corrToMid && !(right.isSub && right.corrToMid):
		inner, thr = left, right
		thetaThrFirst = op.Flip()
	case right.isSub && right.corrToMid && !(left.isSub && left.corrToMid):
		inner, thr = right, left
	default:
		return p.errf("a nested condition needs exactly one side correlated to the enclosing subquery")
	}
	if inner.val.Scale != 1 {
		return p.errf("the innermost aggregate of a nested condition cannot be scaled")
	}
	var thrVal query.Value
	if thr.isSub {
		thrVal = thr.val
	} else {
		if thr.usedOuter || thr.usedMid {
			return p.errf("a scalar nested threshold must be constant")
		}
		thrVal = query.ValExpr(thr.expr)
	}
	col := ""
	if w := inner.val.Sub.Where; w != nil {
		if c, ok := w.Inner.(query.Col); ok {
			col = string(c)
		}
	}
	s.Nested = &query.NestedCond{
		Threshold: thrVal,
		Op:        thetaThrFirst,
		Inner:     inner.val.Sub,
		Col:       col,
	}
	return nil
}

// parseConjunctSide parses one conjunct side: a (scaled) subquery value —
// parsed with the current subquery's alias exposed as the middle alias — or
// a classified scalar expression.
func (p *parser) parseConjunctSide() (conjunctSide, error) {
	parseSubVal := func(scale float64) (conjunctSide, error) {
		savedMid, savedInner := p.midAlias, p.innerAlias
		p.midAlias = p.innerAlias
		sub, corrToMid, err := p.parseSubquery()
		p.midAlias, p.innerAlias = savedMid, savedInner
		if err != nil {
			return conjunctSide{}, err
		}
		return conjunctSide{isSub: true, val: query.ValSub(scale, sub), corrToMid: corrToMid}, nil
	}
	if p.peek().kind == tokNumber {
		save := p.pos
		numTok := p.next()
		if p.acceptSymbol("*") && p.startsSubquery() {
			scale, err := strconv.ParseFloat(numTok.text, 64)
			if err != nil {
				return conjunctSide{}, p.errAt(numTok, "invalid number %q", numTok.text)
			}
			return parseSubVal(scale)
		}
		p.pos = save
	}
	if p.startsSubquery() {
		return parseSubVal(1)
	}
	e, usedOuter, usedMid, err := p.parseClassifiedExpr()
	if err != nil {
		return conjunctSide{}, err
	}
	return conjunctSide{expr: e, usedOuter: usedOuter, usedMid: usedMid}, nil
}

// parseClassifiedExpr parses an expression that may reference the inner, the
// outer, or (in nested contexts) the middle alias — but only one of them —
// and reports which.
func (p *parser) parseClassifiedExpr() (query.Expr, bool, bool, error) {
	p.usedOuter, p.usedInner, p.usedMid = false, false, false
	e, err := p.parseExpr(exprEither)
	if err != nil {
		return nil, false, false, err
	}
	used := 0
	for _, b := range []bool{p.usedOuter, p.usedInner, p.usedMid} {
		if b {
			used++
		}
	}
	if used > 1 {
		return nil, false, false, p.errf("expression mixes inner and outer columns")
	}
	return e, p.usedOuter, p.usedMid, nil
}

// exprSide says which alias's columns an expression may reference.
type exprSide int

const (
	// exprOuter: top-level expressions; columns must use the outer alias.
	exprOuter exprSide = iota
	// exprInner: subquery expressions; columns must use the inner alias.
	exprInner
	// exprCorrelationOuter: the outer side of a subquery's correlation
	// predicate; columns must use the outer alias (constants allowed).
	exprCorrelationOuter
	// exprEither: subquery WHERE conjuncts; either alias is accepted and
	// usage is recorded for classification.
	exprEither
)

// parseExpr parses expr := term (('+'|'-') term)*.
func (p *parser) parseExpr(side exprSide) (query.Expr, error) {
	e, err := p.parseTerm(side)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseTerm(side)
			if err != nil {
				return nil, err
			}
			e = query.BinOp{Op: query.OpAdd, L: e, R: r}
		case p.acceptSymbol("-"):
			r, err := p.parseTerm(side)
			if err != nil {
				return nil, err
			}
			e = query.BinOp{Op: query.OpSub, L: e, R: r}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseTerm(side exprSide) (query.Expr, error) {
	e, err := p.parseFactor(side)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseFactor(side)
			if err != nil {
				return nil, err
			}
			e = query.BinOp{Op: query.OpMul, L: e, R: r}
		case p.acceptSymbol("/"):
			r, err := p.parseFactor(side)
			if err != nil {
				return nil, err
			}
			e = query.BinOp{Op: query.OpDiv, L: e, R: r}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseFactor(side exprSide) (query.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errAt(t, "invalid number %q", t.text)
		}
		return query.Const(v), nil
	case t.kind == tokIdent:
		p.next()
		alias := t.text
		if err := p.expectSymbol("."); err != nil {
			return nil, fmt.Errorf("column references must be alias-qualified: %w", err)
		}
		colTok := p.next()
		if colTok.kind != tokIdent {
			return nil, p.errAt(colTok, "expected column name after %q.", alias)
		}
		if err := p.checkAlias(t, side); err != nil {
			return nil, err
		}
		return query.Col(colTok.text), nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr(side)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression")
}

func (p *parser) checkAlias(aliasTok token, side exprSide) error {
	alias := aliasTok.text
	switch side {
	case exprOuter:
		if alias != p.outerAlias {
			return p.errAt(aliasTok, "column alias %q does not match outer relation alias %q", alias, p.outerAlias)
		}
	case exprInner:
		if alias != p.innerAlias {
			return p.errAt(aliasTok, "column alias %q does not match subquery alias %q", alias, p.innerAlias)
		}
	case exprCorrelationOuter:
		if alias != p.outerAlias {
			return p.errAt(aliasTok, "correlation column alias %q does not match outer relation alias %q (inner-only filters belong on the left side)", alias, p.outerAlias)
		}
	case exprEither:
		switch alias {
		case p.innerAlias:
			p.usedInner = true
		case p.midAlias:
			p.usedMid = true
		case p.outerAlias:
			p.usedOuter = true
		default:
			return p.errAt(aliasTok, "column alias %q matches neither subquery alias %q nor outer alias %q", alias, p.innerAlias, p.outerAlias)
		}
	}
	return nil
}
