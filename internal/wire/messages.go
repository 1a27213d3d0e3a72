package wire

import (
	"fmt"
	"math"

	"rpai/internal/engine"
	"rpai/internal/serve"
)

// This file holds the append-style encoders and bounds-checked decoders for
// every message body. Encoders never fail; decoders return an error for any
// truncated, oversized or inconsistent body and never panic on garbage — the
// property FuzzWireFrames drives.

// msgHeaderLen is the envelope prefix: uint8 type + uint64 request id.
const msgHeaderLen = 9

// EncodeMsg appends the message envelope (type, request id, body) to buf.
func EncodeMsg(buf []byte, t MsgType, id uint64, body []byte) []byte {
	buf = append(buf, byte(t))
	buf = le.AppendUint64(buf, id)
	return append(buf, body...)
}

// DecodeMsg splits a frame payload into its message type, request id and
// body. The body aliases p.
func DecodeMsg(p []byte) (MsgType, uint64, []byte, error) {
	if len(p) < msgHeaderLen {
		return 0, 0, nil, fmt.Errorf("wire: message envelope too short (%d bytes)", len(p))
	}
	return MsgType(p[0]), le.Uint64(p[1:9]), p[msgHeaderLen:], nil
}

// --- hello / welcome ---

// Hello is the client half of the handshake.
type Hello struct {
	Version uint32
	Session [SessionIDLen]byte
}

// EncodeHello appends the hello body to buf.
func EncodeHello(buf []byte, h Hello) []byte {
	buf = le.AppendUint32(buf, h.Version)
	return append(buf, h.Session[:]...)
}

// DecodeHello parses a hello body.
func DecodeHello(p []byte) (Hello, error) {
	var h Hello
	if len(p) != 4+SessionIDLen {
		return h, fmt.Errorf("wire: hello body is %d bytes, want %d", len(p), 4+SessionIDLen)
	}
	h.Version = le.Uint32(p)
	copy(h.Session[:], p[4:])
	return h, nil
}

// Welcome is the server half of the handshake.
type Welcome struct {
	Version uint32
	Shards  uint32
}

// EncodeWelcome appends the welcome body to buf.
func EncodeWelcome(buf []byte, w Welcome) []byte {
	buf = le.AppendUint32(buf, w.Version)
	return le.AppendUint32(buf, w.Shards)
}

// DecodeWelcome parses a welcome body.
func DecodeWelcome(p []byte) (Welcome, error) {
	if len(p) != 8 {
		return Welcome{}, fmt.Errorf("wire: welcome body is %d bytes, want 8", len(p))
	}
	return Welcome{Version: le.Uint32(p), Shards: le.Uint32(p[4:])}, nil
}

// --- apply batch ---

// maxBatchEvents bounds a single batch (the frame size bounds total bytes).
const maxBatchEvents = 1 << 20

// AppendBatchHeader appends the batch prefix (session sequence + event
// count); the caller then appends each event with AppendBatchEvent. Seq 0
// marks the batch unsequenced (applied with no dedup).
func AppendBatchHeader(buf []byte, seq uint64, n uint32) []byte {
	buf = le.AppendUint64(buf, seq)
	return le.AppendUint32(buf, n)
}

// AppendBatchEvent appends one length-prefixed pre-encoded event.
func AppendBatchEvent(buf, event []byte) []byte {
	buf = le.AppendUint32(buf, uint32(len(event)))
	return append(buf, event...)
}

// EncodeBatch builds a full batch body from pre-encoded events.
func EncodeBatch(buf []byte, seq uint64, events [][]byte) []byte {
	buf = AppendBatchHeader(buf, seq, uint32(len(events)))
	for _, ev := range events {
		buf = AppendBatchEvent(buf, ev)
	}
	return buf
}

// DecodeBatch splits a batch body into its sequence number and raw event
// payloads (aliasing p).
func DecodeBatch(p []byte) (seq uint64, events [][]byte, err error) {
	seq, n, rec, err := splitBatch(p)
	if err != nil {
		return 0, nil, err
	}
	events = make([][]byte, 0, n)
	for len(rec) > 0 {
		l := le.Uint32(rec)
		events = append(events, rec[4:4+l])
		rec = rec[4+l:]
	}
	return seq, events, nil
}

// splitBatch validates a batch body's framing and returns its sequence
// number, its event count and the rest of the body after the 12-byte header:
// the per-event u32-length-prefixed payloads, which is the catalog's WAL
// record encoding of the batch.
func splitBatch(p []byte) (seq uint64, n uint32, rec []byte, err error) {
	if len(p) < 12 {
		return 0, 0, nil, fmt.Errorf("wire: batch body too short (%d bytes)", len(p))
	}
	seq = le.Uint64(p)
	n = le.Uint32(p[8:])
	if n > maxBatchEvents {
		return 0, 0, nil, fmt.Errorf("wire: batch of %d events exceeds limit", n)
	}
	rec = p[12:]
	q := rec
	for i := uint32(0); i < n; i++ {
		if len(q) < 4 {
			return 0, 0, nil, fmt.Errorf("wire: batch truncated at event %d", i)
		}
		l := le.Uint32(q)
		if int(l) > len(q)-4 {
			return 0, 0, nil, fmt.Errorf("wire: batch event %d length %d overruns body", i, l)
		}
		q = q[4+l:]
	}
	if len(q) != 0 {
		return 0, 0, nil, fmt.Errorf("wire: %d trailing bytes after batch", len(q))
	}
	return seq, n, rec, nil
}

// --- ack / scalar ---

// EncodeAck appends an ack body: the number of events applied (0 for a
// deduplicated resend, a drain or a checkpoint).
func EncodeAck(buf []byte, applied uint32) []byte {
	return le.AppendUint32(buf, applied)
}

// DecodeAck parses an ack body.
func DecodeAck(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("wire: ack body is %d bytes, want 4", len(p))
	}
	return le.Uint32(p), nil
}

// EncodeScalar appends a scalar result body.
func EncodeScalar(buf []byte, v float64) []byte {
	return le.AppendUint64(buf, math.Float64bits(v))
}

// DecodeScalar parses a scalar result body.
func DecodeScalar(p []byte) (float64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: scalar body is %d bytes, want 8", len(p))
	}
	return math.Float64frombits(le.Uint64(p)), nil
}

// --- grouped results ---

// maxGroupKey bounds a single group's key width.
const maxGroupKey = 64

// EncodeGrouped appends a grouped-result body.
func EncodeGrouped(buf []byte, groups []engine.GroupResult) []byte {
	buf = le.AppendUint32(buf, uint32(len(groups)))
	for _, g := range groups {
		buf = le.AppendUint32(buf, uint32(len(g.Key)))
		for _, k := range g.Key {
			buf = le.AppendUint64(buf, math.Float64bits(k))
		}
		buf = le.AppendUint64(buf, math.Float64bits(g.Value))
	}
	return buf
}

// DecodeGrouped parses a grouped-result body.
func DecodeGrouped(p []byte) ([]engine.GroupResult, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wire: grouped body too short (%d bytes)", len(p))
	}
	n := le.Uint32(p)
	p = p[4:]
	// Each group needs at least 4+8 bytes, so bound the count by the body.
	if int64(n) > int64(len(p))/12 {
		return nil, fmt.Errorf("wire: group count %d overruns body", n)
	}
	groups := make([]engine.GroupResult, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("wire: grouped body truncated at group %d", i)
		}
		kn := le.Uint32(p)
		if kn > maxGroupKey || len(p) < int(4+kn*8+8) {
			return nil, fmt.Errorf("wire: group %d key width %d overruns body", i, kn)
		}
		p = p[4:]
		key := make([]float64, kn)
		for j := range key {
			key[j] = math.Float64frombits(le.Uint64(p))
			p = p[8:]
		}
		groups = append(groups, engine.GroupResult{Key: key, Value: math.Float64frombits(le.Uint64(p))})
		p = p[8:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after groups", len(p))
	}
	return groups, nil
}

// --- stats ---

// ServerStats are the daemon-level serving counters, the admission-control
// half of the stats RPC (the per-shard half is serve.ShardStats).
type ServerStats struct {
	Accepted    uint64 // requests admitted past the limiter
	Shed        uint64 // requests refused with CodeOverloaded
	InFlight    uint64 // admission tokens currently held
	ActiveConns uint64 // open client connections
	Sessions    uint64 // tracked dedup sessions
}

// QueryStats is one registered query's serving counters in the stats reply: the events its executor set applied and rejected, its live push
// subscribers, and the executor-set id (queries sharing indexes share a set).
type QueryStats struct {
	ID          uint64
	SetID       uint64
	Applied     uint64
	Rejected    uint64
	Subscribers uint64
	Strategy    string
	SQL         string
}

// Stats is the full stats RPC payload: the daemon counters, the shard table
// of the lowest live QueryID, and the per-query counter table.
type Stats struct {
	Server  ServerStats
	Shards  []serve.ShardStats
	Queries []QueryStats
}

// maxStatsShards bounds the decoded shard list.
const maxStatsShards = 1 << 16

// maxStatsQueries bounds the decoded per-query table.
const maxStatsQueries = 1 << 16

// EncodeStats appends a stats-reply body.
func EncodeStats(buf []byte, st Stats) []byte {
	buf = le.AppendUint64(buf, st.Server.Accepted)
	buf = le.AppendUint64(buf, st.Server.Shed)
	buf = le.AppendUint64(buf, st.Server.InFlight)
	buf = le.AppendUint64(buf, st.Server.ActiveConns)
	buf = le.AppendUint64(buf, st.Server.Sessions)
	buf = le.AppendUint32(buf, uint32(len(st.Shards)))
	for _, s := range st.Shards {
		buf = le.AppendUint32(buf, uint32(s.Shard))
		buf = le.AppendUint64(buf, s.Applied)
		buf = le.AppendUint64(buf, s.Flushed)
		buf = le.AppendUint64(buf, uint64(s.QueueDepth))
		buf = le.AppendUint64(buf, uint64(s.Partitions))
		buf = le.AppendUint64(buf, s.EnqueueWaitNS)
		buf = le.AppendUint64(buf, uint64(s.BatchSize))
	}
	buf = le.AppendUint32(buf, uint32(len(st.Queries)))
	for _, q := range st.Queries {
		buf = le.AppendUint64(buf, q.ID)
		buf = le.AppendUint64(buf, q.SetID)
		buf = le.AppendUint64(buf, q.Applied)
		buf = le.AppendUint64(buf, q.Rejected)
		buf = le.AppendUint64(buf, q.Subscribers)
		buf = appendStr(buf, q.Strategy)
		buf = appendStr(buf, q.SQL)
	}
	return buf
}

// DecodeStats parses a stats-reply body.
func DecodeStats(p []byte) (Stats, error) {
	var st Stats
	if len(p) < 44 {
		return st, fmt.Errorf("wire: stats body too short (%d bytes)", len(p))
	}
	st.Server = ServerStats{
		Accepted:    le.Uint64(p),
		Shed:        le.Uint64(p[8:]),
		InFlight:    le.Uint64(p[16:]),
		ActiveConns: le.Uint64(p[24:]),
		Sessions:    le.Uint64(p[32:]),
	}
	n := le.Uint32(p[40:])
	p = p[44:]
	const per = 4 + 6*8
	if n > maxStatsShards || int(n)*per > len(p) {
		return st, fmt.Errorf("wire: stats shard count %d inconsistent with body", n)
	}
	st.Shards = make([]serve.ShardStats, n)
	for i := range st.Shards {
		st.Shards[i] = serve.ShardStats{
			Shard:         int(le.Uint32(p)),
			Applied:       le.Uint64(p[4:]),
			Flushed:       le.Uint64(p[12:]),
			QueueDepth:    int(le.Uint64(p[20:])),
			Partitions:    int(le.Uint64(p[28:])),
			EnqueueWaitNS: le.Uint64(p[36:]),
			BatchSize:     int(le.Uint64(p[44:])),
		}
		p = p[per:]
	}
	if len(p) < 4 {
		return st, fmt.Errorf("wire: stats query table truncated")
	}
	qn := le.Uint32(p)
	p = p[4:]
	// Each query entry is at least 5*8 counter bytes plus two string lengths.
	if qn > maxStatsQueries || int64(qn)*48 > int64(len(p)) {
		return st, fmt.Errorf("wire: stats query count %d overruns body", qn)
	}
	st.Queries = make([]QueryStats, 0, qn)
	for i := uint32(0); i < qn; i++ {
		if len(p) < 40 {
			return st, fmt.Errorf("wire: stats query entry %d truncated", i)
		}
		q := QueryStats{
			ID:          le.Uint64(p),
			SetID:       le.Uint64(p[8:]),
			Applied:     le.Uint64(p[16:]),
			Rejected:    le.Uint64(p[24:]),
			Subscribers: le.Uint64(p[32:]),
		}
		p = p[40:]
		var err error
		if q.Strategy, p, err = takeStr(p, "stats query strategy"); err != nil {
			return st, err
		}
		if q.SQL, p, err = takeStr(p, "stats query sql"); err != nil {
			return st, err
		}
		st.Queries = append(st.Queries, q)
	}
	if len(p) != 0 {
		return st, fmt.Errorf("wire: %d trailing bytes after stats query table", len(p))
	}
	return st, nil
}

// --- subscribe / delta ---

// Subscribe is the body of a MsgSubscribeQ request after its QueryID: an
// optional partition-key subset, plus the resume coordinates of an earlier
// subscription (epoch 0 means a fresh attach). It mirrors serve.SubOptions;
// the delivery buffer is a server-side concern and stays off the wire.
type Subscribe struct {
	Keys   [][]float64
	Epoch  uint64
	Resume []serve.ShardVersion
}

// maxSubKeys bounds a subscription's key subset.
const maxSubKeys = 1 << 16

// encodeSubscribe appends a subscribe body.
func encodeSubscribe(buf []byte, s Subscribe) []byte {
	buf = le.AppendUint32(buf, uint32(len(s.Keys)))
	for _, k := range s.Keys {
		buf = le.AppendUint32(buf, uint32(len(k)))
		for _, v := range k {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = le.AppendUint64(buf, s.Epoch)
	buf = le.AppendUint32(buf, uint32(len(s.Resume)))
	for _, sv := range s.Resume {
		buf = le.AppendUint32(buf, uint32(sv.Shard))
		buf = le.AppendUint64(buf, sv.Version)
	}
	return buf
}

// decodeSubscribe parses a subscribe body.
func decodeSubscribe(p []byte) (Subscribe, error) {
	var s Subscribe
	if len(p) < 4 {
		return s, fmt.Errorf("wire: subscribe body too short (%d bytes)", len(p))
	}
	kn := le.Uint32(p)
	p = p[4:]
	// Each key needs at least its 4-byte width, so bound the count by the body.
	if kn > maxSubKeys || int64(kn) > int64(len(p))/4 {
		return s, fmt.Errorf("wire: subscribe key count %d overruns body", kn)
	}
	if kn > 0 {
		s.Keys = make([][]float64, 0, kn)
	}
	for i := uint32(0); i < kn; i++ {
		if len(p) < 4 {
			return s, fmt.Errorf("wire: subscribe body truncated at key %d", i)
		}
		w := le.Uint32(p)
		if w > maxGroupKey || len(p) < int(4+w*8) {
			return s, fmt.Errorf("wire: subscribe key %d width %d overruns body", i, w)
		}
		p = p[4:]
		key := make([]float64, w)
		for j := range key {
			key[j] = math.Float64frombits(le.Uint64(p))
			p = p[8:]
		}
		s.Keys = append(s.Keys, key)
	}
	if len(p) < 12 {
		return s, fmt.Errorf("wire: subscribe body truncated before resume list")
	}
	s.Epoch = le.Uint64(p)
	rn := le.Uint32(p[8:])
	p = p[12:]
	if rn > maxStatsShards || int(rn)*12 != len(p) {
		return s, fmt.Errorf("wire: subscribe resume count %d inconsistent with body", rn)
	}
	if rn > 0 {
		s.Resume = make([]serve.ShardVersion, rn)
	}
	for i := range s.Resume {
		s.Resume[i] = serve.ShardVersion{Shard: int(le.Uint32(p)), Version: le.Uint64(p[4:])}
		p = p[12:]
	}
	return s, nil
}

// Subscribed is the body of a MsgSubscribed acknowledgement: the shard count
// (the number of independent delta streams) and the service epoch the client
// quotes to resume this subscription after a reconnect.
type Subscribed struct {
	Shards uint32
	Epoch  uint64
}

// EncodeSubscribed appends a subscribed body.
func EncodeSubscribed(buf []byte, s Subscribed) []byte {
	buf = le.AppendUint32(buf, s.Shards)
	return le.AppendUint64(buf, s.Epoch)
}

// DecodeSubscribed parses a subscribed body.
func DecodeSubscribed(p []byte) (Subscribed, error) {
	var s Subscribed
	if len(p) != 12 {
		return s, fmt.Errorf("wire: subscribed body is %d bytes, want 12", len(p))
	}
	s.Shards = le.Uint32(p)
	s.Epoch = le.Uint64(p[4:])
	return s, nil
}

// deltaFullFlag marks a delta frame that replaces the reader's whole shard
// state instead of upserting into it.
const deltaFullFlag = 1

// encodeDelta appends a delta-frame body: shard coordinates, the version
// window, the full/incremental flag, then the groups in grouped-result
// layout.
func encodeDelta(buf []byte, f serve.DeltaFrame) []byte {
	buf = le.AppendUint32(buf, uint32(f.Shard))
	buf = le.AppendUint64(buf, f.Version)
	buf = le.AppendUint64(buf, f.Base)
	var flags byte
	if f.Full {
		flags |= deltaFullFlag
	}
	buf = append(buf, flags)
	return EncodeGrouped(buf, f.Groups)
}

// decodeDelta parses a delta-frame body.
func decodeDelta(p []byte) (serve.DeltaFrame, error) {
	var f serve.DeltaFrame
	if len(p) < 21 {
		return f, fmt.Errorf("wire: delta body too short (%d bytes)", len(p))
	}
	f.Shard = int(le.Uint32(p))
	f.Version = le.Uint64(p[4:])
	f.Base = le.Uint64(p[12:])
	flags := p[20]
	if flags&^deltaFullFlag != 0 {
		return f, fmt.Errorf("wire: delta flags %#x unknown", flags)
	}
	f.Full = flags&deltaFullFlag != 0
	groups, err := DecodeGrouped(p[21:])
	if err != nil {
		return f, err
	}
	if f.Full && f.Base != 0 {
		return f, fmt.Errorf("wire: full delta frame carries nonzero base %d", f.Base)
	}
	if !f.Full && f.Base > f.Version {
		return f, fmt.Errorf("wire: delta base %d beyond version %d", f.Base, f.Version)
	}
	f.Groups = groups
	return f, nil
}

// --- error replies ---

// maxErrMsg bounds an error reply's detail string.
const maxErrMsg = 1 << 12

// EncodeError appends an error body (code + detail message).
func EncodeError(buf []byte, code Code, msg string) []byte {
	if len(msg) > maxErrMsg {
		msg = msg[:maxErrMsg]
	}
	buf = le.AppendUint16(buf, uint16(code))
	buf = le.AppendUint32(buf, uint32(len(msg)))
	return append(buf, msg...)
}

// DecodeError parses an error body.
func DecodeError(p []byte) (Code, string, error) {
	if len(p) < 6 {
		return 0, "", fmt.Errorf("wire: error body too short (%d bytes)", len(p))
	}
	code := Code(le.Uint16(p))
	n := le.Uint32(p[2:])
	if n > maxErrMsg || int(n) != len(p)-6 {
		return 0, "", fmt.Errorf("wire: error message length %d inconsistent with body", n)
	}
	return code, string(p[6:]), nil
}
