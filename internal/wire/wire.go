// Package wire is the network protocol of the RPAI serving layer: the front
// door that turns the in-process query catalog (internal/catalog) into a
// daemon external applications can feed change streams to and query — the
// deployment shape DBToaster-style IVM and DBSP both presume.
//
// The protocol is binary, length-prefixed and CRC32C-checksummed, following
// the checkpoint package's framing discipline:
//
//	frame := uint32 payloadLen | uint32 crc32c(payload) | payload
//	payload := uint8 msgType | uint64 requestID | body
//
// Every multi-byte integer is little-endian. A reader that hits a short
// header, a short payload, an oversized length prefix or a checksum mismatch
// reports ErrCorruptFrame and the connection is torn down — a damaged frame
// is always detected, never silently decoded.
//
// A connection opens with a versioned handshake: the client sends MsgHello
// (protocol version plus a client-generated 16-byte session id) and the
// server answers MsgWelcome (version and shard count) or a typed MsgError
// with CodeVersion. After the handshake the client may pipeline any number
// of requests; the server replies strictly in request order per connection,
// echoing each request's id.
//
// Sessions give batched applies exactly-once semantics across reconnects:
// MsgApplyBatch carries a per-session sequence number, the server remembers
// the session's last applied sequence, and a resent batch (after a killed
// connection) is acknowledged without re-applying. Sequences must be applied
// contiguously — a gap (an earlier batch was shed or lost) is refused with
// CodeSeqGap and the client re-sends from its first unacknowledged batch.
//
// Overload is a first-class reply, not a queue: when the server's admission
// limiter is saturated, work-carrying requests receive MsgError CodeOverloaded
// immediately while read-only requests (result, stats) still go through, so
// the system stays observable under load. See DESIGN.md section 5d for the
// full message catalogue and the overload semantics.
//
// Every read and subscription names the registered query it addresses by
// QueryID (MsgResultQ, MsgGroupedQ, MsgSubscribeQ).
package wire

import (
	"errors"
	"fmt"
)

// Version is the protocol version this package speaks — the only one. The
// server refuses a hello carrying any other with CodeVersion, and the client
// offers no other; a peer built from another version of this package must be
// rebuilt.
const Version = 7

// DefaultMaxFrame bounds a frame payload (8 MiB) unless overridden: large
// enough for multi-thousand-event batches and wide grouped results, small
// enough that a hostile length prefix cannot force a huge allocation.
const DefaultMaxFrame = 8 << 20

// SessionIDLen is the size of the client-generated session identifier.
const SessionIDLen = 16

// MsgType identifies a frame's message.
type MsgType uint8

// Request messages (client to server). Types 2, 5, 6 and 15 are retired: 2
// was the unsequenced single-event apply of versions up to 5, and 5, 6 and 15
// the un-routed result, grouped-result and subscribe of versions up to 6,
// which addressed the lowest live QueryID. A server answers each like any
// unknown request type (CodeBadRequest, connection kept).
const (
	MsgHello      MsgType = 1 // handshake: version + session id
	MsgApplyBatch MsgType = 3 // sequenced event batch (the only ingest message)
	MsgDrain      MsgType = 4 // barrier: ack after all prior events are applied and durable
	MsgStats      MsgType = 7 // server + per-shard serving counters
	MsgCheckpoint MsgType = 8 // rotate a checkpoint generation in the server's data dir
	// MsgRegister registers a query at runtime: the body is the SQL text, the
	// reply MsgRegistered carries the assigned QueryID and the query's EXPLAIN.
	MsgRegister MsgType = 18
	// MsgUnregister removes a registered query by QueryID; acknowledged
	// with MsgAck.
	MsgUnregister MsgType = 20
	// MsgListQueries asks for every registered query's EXPLAIN; the
	// reply is MsgQueryList.
	MsgListQueries MsgType = 21
	// MsgExplain asks for one query's EXPLAIN by QueryID; the reply is
	// MsgExplained.
	MsgExplain MsgType = 23
	// MsgResultQ / MsgGroupedQ are the QueryID-routed reads; replies are
	// the plain MsgScalar / MsgGrouped.
	MsgResultQ  MsgType = 25
	MsgGroupedQ MsgType = 26
	// MsgSubscribeQ subscribes to one registered query's delta stream:
	// a QueryID followed by a subscribe body. The server acknowledges with
	// MsgSubscribed and streams MsgDeltaQ frames until the connection
	// closes. A subscribed connection sends nothing further.
	MsgSubscribeQ MsgType = 27
)

// Response messages (server to client). Type 17 is retired: it was the
// delta frame of the un-routed subscribe; a client treats it as a protocol
// violation.
const (
	MsgWelcome    MsgType = 9  // handshake reply: version, shards
	MsgAck        MsgType = 10 // apply/batch/drain/checkpoint acknowledgement
	MsgScalar     MsgType = 11 // scalar result
	MsgGrouped    MsgType = 12 // grouped result
	MsgStatsReply MsgType = 13 // stats payload
	MsgError      MsgType = 14 // typed failure reply
	// MsgSubscribed acknowledges a subscription: shard count plus the
	// service epoch the client quotes when resuming after a reconnect.
	MsgSubscribed MsgType = 16
	// MsgRegistered acknowledges MsgRegister: the assigned QueryID plus
	// the query's EXPLAIN (strategy, index kind, sharing).
	MsgRegistered MsgType = 19
	// MsgQueryList answers MsgListQueries with every registration's
	// EXPLAIN, ordered by QueryID.
	MsgQueryList MsgType = 22
	// MsgExplained answers MsgExplain with one query's EXPLAIN.
	MsgExplained MsgType = 24
	// MsgDeltaQ is one pushed coalesced delta frame for one shard of one
	// query: the QueryID followed by the delta body. Its request id echoes
	// the subscribe request's id.
	MsgDeltaQ MsgType = 28
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgApplyBatch:
		return "apply-batch"
	case MsgDrain:
		return "drain"
	case MsgStats:
		return "stats"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgWelcome:
		return "welcome"
	case MsgAck:
		return "ack"
	case MsgScalar:
		return "scalar"
	case MsgGrouped:
		return "grouped"
	case MsgStatsReply:
		return "stats-reply"
	case MsgError:
		return "error"
	case MsgSubscribed:
		return "subscribed"
	case MsgRegister:
		return "register"
	case MsgRegistered:
		return "registered"
	case MsgUnregister:
		return "unregister"
	case MsgListQueries:
		return "list-queries"
	case MsgQueryList:
		return "query-list"
	case MsgExplain:
		return "explain"
	case MsgExplained:
		return "explained"
	case MsgResultQ:
		return "result-q"
	case MsgGroupedQ:
		return "grouped-q"
	case MsgSubscribeQ:
		return "subscribe-q"
	case MsgDeltaQ:
		return "delta-q"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Code classifies a MsgError reply.
type Code uint16

const (
	// CodeOverloaded: the admission limiter (or the owning shard's queue) is
	// saturated; the request was shed without queueing. Retry after backoff.
	CodeOverloaded Code = 1
	// CodeClosed: the service is shutting down.
	CodeClosed Code = 2
	// CodeBadRequest: the request was syntactically or semantically invalid.
	CodeBadRequest Code = 3
	// CodeVersion: the hello's protocol version is not Version.
	CodeVersion Code = 4
	// CodeSeqGap: a sequenced batch skipped ahead of the session's last
	// applied sequence (an earlier batch was shed or lost); the client must
	// re-send from its first unacknowledged batch.
	CodeSeqGap Code = 5
	// CodeInternal: an unexpected server-side failure.
	CodeInternal Code = 6
	// CodeReadOnly: the server fronts a follower catalog; write-carrying
	// requests (batch, drain, checkpoint, register, unregister) are refused.
	// Point writes at the primary.
	CodeReadOnly Code = 7
)

// Typed sentinel errors for each reply code; clients match with errors.Is.
var (
	ErrOverloaded = errors.New("wire: server overloaded")
	ErrClosed     = errors.New("wire: server is shutting down")
	ErrBadRequest = errors.New("wire: bad request")
	ErrVersion    = errors.New("wire: protocol version mismatch")
	ErrSeqGap     = errors.New("wire: sequence gap")
	ErrInternal   = errors.New("wire: internal server error")
	ErrReadOnly   = errors.New("wire: server is a read-only replica")
)

// Err converts a reply code and detail message into a typed error wrapping
// the matching sentinel.
func (c Code) Err(msg string) error {
	base := ErrInternal
	switch c {
	case CodeOverloaded:
		base = ErrOverloaded
	case CodeClosed:
		base = ErrClosed
	case CodeBadRequest:
		base = ErrBadRequest
	case CodeVersion:
		base = ErrVersion
	case CodeSeqGap:
		base = ErrSeqGap
	case CodeReadOnly:
		base = ErrReadOnly
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// Transient reports whether a code is safe to retry after reconnect/backoff:
// the request was provably not applied.
func (c Code) Transient() bool {
	return c == CodeOverloaded || c == CodeSeqGap
}
