package wire

import (
	"fmt"

	"rpai/internal/catalog"
	"rpai/internal/serve"
)

// This file holds the codecs for the catalog messages — runtime query
// registration, EXPLAIN, and the QueryID-routed reads and subscriptions. The
// encoders/decoders follow messages.go's discipline: encoders never fail,
// decoders are total and strictly bounds-checked.

// maxStrLen bounds every string on the wire: a query's SQL text and the
// EXPLAIN and stats fields.
const maxStrLen = 1 << 16

// maxExplainQueries bounds a query-list reply and an explain's shared-with
// list.
const maxExplainQueries = 1 << 16

// appendStr appends a u32-length-prefixed string.
func appendStr(buf []byte, s string) []byte {
	buf = le.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// takeStr consumes a u32-length-prefixed string bounded by maxStrLen.
func takeStr(p []byte, what string) (string, []byte, error) {
	if len(p) < 4 {
		return "", nil, fmt.Errorf("wire: %s truncated", what)
	}
	n := le.Uint32(p)
	if n > maxStrLen || int64(n) > int64(len(p)-4) {
		return "", nil, fmt.Errorf("wire: %s length %d overruns body", what, n)
	}
	return string(p[4 : 4+n]), p[4+n:], nil
}

// EncodeRegister appends a register body: the SQL text.
func EncodeRegister(buf []byte, sql string) []byte {
	if len(sql) > maxStrLen {
		sql = sql[:maxStrLen]
	}
	return appendStr(buf, sql)
}

// DecodeRegister parses a register body.
func DecodeRegister(p []byte) (string, error) {
	sql, rest, err := takeStr(p, "register sql")
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after register body", len(rest))
	}
	return sql, nil
}

// EncodeQueryID appends a bare QueryID body (unregister, explain, the routed
// reads, and the subscribe-q prefix).
func EncodeQueryID(buf []byte, id catalog.QueryID) []byte {
	return le.AppendUint64(buf, uint64(id))
}

// DecodeQueryID parses a bare QueryID body.
func DecodeQueryID(p []byte) (catalog.QueryID, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: query-id body is %d bytes, want 8", len(p))
	}
	return catalog.QueryID(le.Uint64(p)), nil
}

// EncodeExplain appends one query's EXPLAIN: the planner's strategy and
// index choice, the catalog's sharing report, and the state/probe split
// (StateKey, Probe, Residual, StateSince).
func EncodeExplain(buf []byte, ex catalog.Explain) []byte {
	buf = le.AppendUint64(buf, uint64(ex.ID))
	buf = appendStr(buf, ex.SQL)
	buf = appendStr(buf, ex.Canonical)
	buf = appendStr(buf, ex.Strategy)
	buf = appendStr(buf, ex.IndexKind)
	buf = appendStr(buf, ex.KeyCol)
	buf = appendStr(buf, ex.SubOp)
	buf = appendStr(buf, ex.Agg)
	buf = appendStr(buf, ex.PredSig)
	buf = le.AppendUint32(buf, uint32(len(ex.GroupBy)))
	for _, c := range ex.GroupBy {
		buf = appendStr(buf, c)
	}
	buf = le.AppendUint32(buf, uint32(len(ex.Predicates)))
	for _, pr := range ex.Predicates {
		buf = appendStr(buf, pr)
	}
	buf = le.AppendUint32(buf, uint32(len(ex.SharedWith)))
	for _, id := range ex.SharedWith {
		buf = le.AppendUint64(buf, uint64(id))
	}
	buf = le.AppendUint32(buf, uint32(len(ex.SharedExact)))
	for _, id := range ex.SharedExact {
		buf = le.AppendUint64(buf, uint64(id))
	}
	buf = le.AppendUint32(buf, uint32(len(ex.SharedFamily)))
	for _, id := range ex.SharedFamily {
		buf = le.AppendUint64(buf, uint64(id))
	}
	buf = le.AppendUint64(buf, ex.Since)
	buf = le.AppendUint32(buf, uint32(ex.IngestSets))
	buf = appendStr(buf, ex.StateKey)
	buf = appendStr(buf, ex.Probe)
	buf = appendStr(buf, ex.Residual)
	return le.AppendUint64(buf, ex.StateSince)
}

// decodeExplain consumes one EXPLAIN from p, returning the remainder.
func decodeExplain(p []byte) (catalog.Explain, []byte, error) {
	var ex catalog.Explain
	if len(p) < 8 {
		return ex, nil, fmt.Errorf("wire: explain body too short (%d bytes)", len(p))
	}
	ex.ID = catalog.QueryID(le.Uint64(p))
	p = p[8:]
	var err error
	for _, f := range []struct {
		dst *string
		tag string
	}{
		{&ex.SQL, "explain sql"},
		{&ex.Canonical, "explain canonical"},
		{&ex.Strategy, "explain strategy"},
		{&ex.IndexKind, "explain index kind"},
		{&ex.KeyCol, "explain key column"},
		{&ex.SubOp, "explain sub-op"},
		{&ex.Agg, "explain aggregate"},
		{&ex.PredSig, "explain predicate signature"},
	} {
		if *f.dst, p, err = takeStr(p, f.tag); err != nil {
			return ex, nil, err
		}
	}
	if len(p) < 4 {
		return ex, nil, fmt.Errorf("wire: explain truncated before group-by list")
	}
	gn := le.Uint32(p)
	p = p[4:]
	if int64(gn) > int64(len(p))/4 {
		return ex, nil, fmt.Errorf("wire: explain group-by count %d overruns body", gn)
	}
	for i := uint32(0); i < gn; i++ {
		var c string
		if c, p, err = takeStr(p, "explain group-by column"); err != nil {
			return ex, nil, err
		}
		ex.GroupBy = append(ex.GroupBy, c)
	}
	if len(p) < 4 {
		return ex, nil, fmt.Errorf("wire: explain truncated before predicate list")
	}
	pn := le.Uint32(p)
	p = p[4:]
	if int64(pn) > int64(len(p))/4 {
		return ex, nil, fmt.Errorf("wire: explain predicate count %d overruns body", pn)
	}
	for i := uint32(0); i < pn; i++ {
		var pr string
		if pr, p, err = takeStr(p, "explain predicate"); err != nil {
			return ex, nil, err
		}
		ex.Predicates = append(ex.Predicates, pr)
	}
	for _, dst := range []*[]catalog.QueryID{&ex.SharedWith, &ex.SharedExact, &ex.SharedFamily} {
		if len(p) < 4 {
			return ex, nil, fmt.Errorf("wire: explain truncated before shared-with list")
		}
		sn := le.Uint32(p)
		p = p[4:]
		if sn > maxExplainQueries || int64(sn)*8 > int64(len(p)) {
			return ex, nil, fmt.Errorf("wire: explain shared-with count %d overruns body", sn)
		}
		for i := uint32(0); i < sn; i++ {
			*dst = append(*dst, catalog.QueryID(le.Uint64(p)))
			p = p[8:]
		}
	}
	if len(p) < 12 {
		return ex, nil, fmt.Errorf("wire: explain truncated before ingest summary")
	}
	ex.Since = le.Uint64(p)
	ex.IngestSets = int(le.Uint32(p[8:]))
	p = p[12:]
	if ex.StateKey, p, err = takeStr(p, "explain state key"); err != nil {
		return ex, nil, err
	}
	if ex.Probe, p, err = takeStr(p, "explain probe"); err != nil {
		return ex, nil, err
	}
	if ex.Residual, p, err = takeStr(p, "explain residual"); err != nil {
		return ex, nil, err
	}
	if len(p) < 8 {
		return ex, nil, fmt.Errorf("wire: explain truncated before state epoch")
	}
	ex.StateSince = le.Uint64(p)
	return ex, p[8:], nil
}

// DecodeExplain parses a registered/explained body (exactly one EXPLAIN).
func DecodeExplain(p []byte) (catalog.Explain, error) {
	ex, rest, err := decodeExplain(p)
	if err != nil {
		return ex, err
	}
	if len(rest) != 0 {
		return ex, fmt.Errorf("wire: %d trailing bytes after explain", len(rest))
	}
	return ex, nil
}

// EncodeQueryList appends a query-list body: every registration's EXPLAIN.
func EncodeQueryList(buf []byte, list []catalog.Explain) []byte {
	buf = le.AppendUint32(buf, uint32(len(list)))
	for _, ex := range list {
		buf = EncodeExplain(buf, ex)
	}
	return buf
}

// DecodeQueryList parses a query-list body.
func DecodeQueryList(p []byte) ([]catalog.Explain, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wire: query-list body too short (%d bytes)", len(p))
	}
	n := le.Uint32(p)
	p = p[4:]
	// Each explain is at least 8 bytes of id plus eight 4-byte string lengths.
	if n > maxExplainQueries || int64(n)*8 > int64(len(p)+8) {
		return nil, fmt.Errorf("wire: query-list count %d overruns body", n)
	}
	var list []catalog.Explain
	for i := uint32(0); i < n; i++ {
		ex, rest, err := decodeExplain(p)
		if err != nil {
			return nil, fmt.Errorf("wire: query-list entry %d: %w", i, err)
		}
		list = append(list, ex)
		p = rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after query list", len(p))
	}
	return list, nil
}

// EncodeSubscribeQ appends a subscribe-q body: the QueryID followed by the
// subscribe body.
func EncodeSubscribeQ(buf []byte, id catalog.QueryID, s Subscribe) []byte {
	buf = le.AppendUint64(buf, uint64(id))
	return encodeSubscribe(buf, s)
}

// DecodeSubscribeQ parses a subscribe-q body.
func DecodeSubscribeQ(p []byte) (catalog.QueryID, Subscribe, error) {
	if len(p) < 8 {
		return 0, Subscribe{}, fmt.Errorf("wire: subscribe-q body too short (%d bytes)", len(p))
	}
	s, err := decodeSubscribe(p[8:])
	return catalog.QueryID(le.Uint64(p)), s, err
}

// EncodeDeltaQ appends a delta-q body: the QueryID followed by the delta
// body.
func EncodeDeltaQ(buf []byte, id catalog.QueryID, f serve.DeltaFrame) []byte {
	buf = le.AppendUint64(buf, uint64(id))
	return encodeDelta(buf, f)
}

// DecodeDeltaQ parses a delta-q body.
func DecodeDeltaQ(p []byte) (catalog.QueryID, serve.DeltaFrame, error) {
	if len(p) < 8 {
		return 0, serve.DeltaFrame{}, fmt.Errorf("wire: delta-q body too short (%d bytes)", len(p))
	}
	f, err := decodeDelta(p[8:])
	return catalog.QueryID(le.Uint64(p)), f, err
}
