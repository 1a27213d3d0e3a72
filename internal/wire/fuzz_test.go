package wire

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/serve"
)

// fuzzExplain is a fully-populated EXPLAIN for the codec seeds.
func fuzzExplain() catalog.Explain {
	return catalog.Explain{
		ID: 2, SQL: "SELECT SUM(b.price * b.volume) FROM bids b", Canonical: "SELECT ...",
		Strategy: "aggindex", IndexKind: "rpai-arena", KeyCol: "price", SubOp: "<=", Agg: "sum",
		PredSig: "0.? * SUM(volume) < SUM(volume WHERE price <= price)",
		GroupBy: []string{"sym"}, Predicates: []string{"p0"}, SharedWith: []catalog.QueryID{1, 4},
		SharedExact: []catalog.QueryID{1}, SharedFamily: []catalog.QueryID{4},
		Since: 12, IngestSets: 3,
	}
}

// fuzzSeedFrames builds one valid frame per message type, retired types
// included. The committed corpus under testdata/fuzz/FuzzWireFrames was
// written from this list at protocol version 6 and keeps that version's bytes:
// its hello (seed-00) carries version 6 and its welcome (seed-08) a query
// string.
func fuzzSeedFrames() [][]byte {
	ev := engine.EncodeEvent(nil, engine.Insert(map[string]float64{"sym": 1, "price": 2, "volume": 3}))
	bodies := []struct {
		t    MsgType
		body []byte
	}{
		{MsgHello, EncodeHello(nil, Hello{Version: Version, Session: [SessionIDLen]byte{1, 2, 3}})},
		{2, ev}, // the retired single-event apply: servers refuse it as unknown
		{MsgApplyBatch, EncodeBatch(nil, 7, [][]byte{ev, ev})},
		{MsgDrain, nil},
		{5, nil}, // the retired un-routed result read
		{6, nil}, // the retired un-routed grouped read
		{MsgStats, nil},
		{MsgCheckpoint, nil},
		{MsgWelcome, EncodeWelcome(nil, Welcome{Version: Version, Shards: 4})},
		{MsgAck, EncodeAck(nil, 2)},
		{MsgScalar, EncodeScalar(nil, 3.25)},
		{MsgGrouped, EncodeGrouped(nil, []engine.GroupResult{{Key: []float64{1}, Value: 2}})},
		{MsgStatsReply, EncodeStats(nil, Stats{Server: ServerStats{Accepted: 1}, Shards: []serve.ShardStats{{Shard: 0, Applied: 3}}})},
		{MsgError, EncodeError(nil, CodeOverloaded, "busy")},
		{15, encodeSubscribe(nil, Subscribe{Keys: [][]float64{{1}, {2}}, Epoch: 9, // the retired un-routed subscribe
			Resume: []serve.ShardVersion{{Shard: 0, Version: 5}, {Shard: 1, Version: 7}}})},
		{MsgSubscribed, EncodeSubscribed(nil, Subscribed{Shards: 2, Epoch: 9})},
		{17, encodeDelta(nil, serve.DeltaFrame{Shard: 1, Version: 8, Base: 6, // the retired un-routed delta
			Groups: []engine.GroupResult{{Key: []float64{2}, Value: 11.5}}})},
		{MsgRegister, EncodeRegister(nil, "SELECT SUM(b.v) FROM bids b")},
		{MsgRegistered, EncodeExplain(nil, fuzzExplain())},
		{MsgUnregister, EncodeQueryID(nil, 3)},
		{MsgListQueries, nil},
		{MsgQueryList, EncodeQueryList(nil, []catalog.Explain{fuzzExplain(), {ID: 9, Strategy: "naive"}})},
		{MsgExplain, EncodeQueryID(nil, 2)},
		{MsgExplained, EncodeExplain(nil, fuzzExplain())},
		{MsgResultQ, EncodeQueryID(nil, 2)},
		{MsgGroupedQ, EncodeQueryID(nil, 2)},
		{MsgSubscribeQ, EncodeSubscribeQ(nil, 2, Subscribe{Keys: [][]float64{{4}}, Epoch: 3,
			Resume: []serve.ShardVersion{{Shard: 0, Version: 1}}})},
		{MsgDeltaQ, EncodeDeltaQ(nil, 2, serve.DeltaFrame{Shard: 0, Version: 4, Full: true,
			Groups: []engine.GroupResult{{Key: []float64{1}, Value: 5}}})},
		{MsgStatsReply, EncodeStats(nil, Stats{Server: ServerStats{Accepted: 2},
			Shards:  []serve.ShardStats{{Shard: 0, Applied: 9}},
			Queries: []QueryStats{{ID: 1, SetID: 1, Applied: 9, Subscribers: 1, Strategy: "aggindex", SQL: "SELECT ..."}}})},
	}
	frames := make([][]byte, 0, len(bodies)+2)
	for i, b := range bodies {
		frames = append(frames, AppendFrame(nil, EncodeMsg(nil, b.t, uint64(i), b.body)))
	}
	// Two back-to-back frames in one input, and a bare corrupt header.
	two := AppendFrame(nil, EncodeMsg(nil, MsgDrain, 1, nil))
	two = AppendFrame(two, EncodeMsg(nil, 5, 2, nil))
	frames = append(frames, two, []byte{1, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x00})
	return frames
}

// FuzzWireFrames drives the full read path — frame, envelope, every body
// decoder — over arbitrary bytes. The invariant is totality: decoders return
// errors, they never panic, never over-read, and never allocate past the
// frame bound.
func FuzzWireFrames(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, 1<<16)
			if err != nil {
				if err != io.EOF && !bytes.Contains([]byte(err.Error()), []byte("wire:")) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			tp, _, body, err := DecodeMsg(payload)
			if err != nil {
				continue
			}
			switch tp {
			case MsgHello:
				DecodeHello(body)
			case MsgApplyBatch:
				if _, events, err := DecodeBatch(body); err == nil {
					for _, ev := range events {
						engine.DecodeEvent(ev)
					}
				}
			case MsgWelcome:
				DecodeWelcome(body)
			case MsgAck:
				DecodeAck(body)
			case MsgScalar:
				DecodeScalar(body)
			case MsgGrouped:
				DecodeGrouped(body)
			case MsgStatsReply:
				DecodeStats(body)
			case MsgError:
				DecodeError(body)
			case MsgSubscribed:
				DecodeSubscribed(body)
			case MsgRegister:
				DecodeRegister(body)
			case MsgRegistered, MsgExplained:
				DecodeExplain(body)
			case MsgUnregister, MsgExplain, MsgResultQ, MsgGroupedQ:
				DecodeQueryID(body)
			case MsgQueryList:
				DecodeQueryList(body)
			case MsgSubscribeQ:
				DecodeSubscribeQ(body)
			case MsgDeltaQ:
				DecodeDeltaQ(body)
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzWireFrames from fuzzSeedFrames. Run with
// WRITE_FUZZ_CORPUS=1 after changing the protocol; skipped otherwise.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireFrames")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, frame := range fuzzSeedFrames() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuzzSeedsDecode keeps the committed seed corpus honest: every seed
// frame except the two trailing specials (the back-to-back pair and the
// corrupt header) must decode cleanly end to end.
func TestFuzzSeedsDecode(t *testing.T) {
	seeds := fuzzSeedFrames()
	for i, frame := range seeds[:len(seeds)-2] {
		payload, err := ReadFrame(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if _, _, _, err := DecodeMsg(payload); err != nil {
			t.Fatalf("seed %d envelope: %v", i, err)
		}
	}
}

// TestCatalogCodecsRejectMalformed pins the v4 decoders' strictness: every
// truncation, overrun length, and trailing-byte mutation must be refused with
// an error, never mis-decoded or panicked on.
func TestCatalogCodecsRejectMalformed(t *testing.T) {
	reg := EncodeRegister(nil, "SELECT SUM(b.v) FROM bids b")
	ex := EncodeExplain(nil, fuzzExplain())
	list := EncodeQueryList(nil, []catalog.Explain{fuzzExplain()})
	subq := EncodeSubscribeQ(nil, 2, Subscribe{Epoch: 1})
	dq := EncodeDeltaQ(nil, 2, serve.DeltaFrame{Shard: 0, Version: 1,
		Groups: []engine.GroupResult{{Key: []float64{1}, Value: 5}}})
	stq := EncodeStats(nil, Stats{Shards: []serve.ShardStats{{Shard: 0}},
		Queries: []QueryStats{{ID: 1, SQL: "q"}}})

	overrunLen := func(valid []byte, at int) []byte {
		m := append([]byte(nil), valid...)
		le.PutUint32(m[at:], 1<<30) // a length prefix far past the body
		return m
	}
	cases := []struct {
		name   string
		decode func([]byte) error
		input  []byte
	}{
		{"register truncated", func(p []byte) error { _, err := DecodeRegister(p); return err }, reg[:2]},
		{"register overrun length", func(p []byte) error { _, err := DecodeRegister(p); return err }, overrunLen(reg, 0)},
		{"register trailing bytes", func(p []byte) error { _, err := DecodeRegister(p); return err }, append(append([]byte(nil), reg...), 0)},
		{"query-id short", func(p []byte) error { _, err := DecodeQueryID(p); return err }, []byte{1, 2, 3}},
		{"query-id long", func(p []byte) error { _, err := DecodeQueryID(p); return err }, make([]byte, 9)},
		{"explain empty", func(p []byte) error { _, err := DecodeExplain(p); return err }, nil},
		{"explain truncated mid-string", func(p []byte) error { _, err := DecodeExplain(p); return err }, ex[:14]},
		{"explain overrun string length", func(p []byte) error { _, err := DecodeExplain(p); return err }, overrunLen(ex, 8)},
		{"explain truncated before lists", func(p []byte) error { _, err := DecodeExplain(p); return err }, ex[:len(ex)-14]},
		{"explain trailing bytes", func(p []byte) error { _, err := DecodeExplain(p); return err }, append(append([]byte(nil), ex...), 7)},
		{"query-list short", func(p []byte) error { _, err := DecodeQueryList(p); return err }, []byte{1}},
		{"query-list overrun count", func(p []byte) error { _, err := DecodeQueryList(p); return err }, overrunLen(list, 0)},
		{"query-list trailing bytes", func(p []byte) error { _, err := DecodeQueryList(p); return err }, append(append([]byte(nil), list...), 7)},
		{"subscribe-q short", func(p []byte) error { _, _, err := DecodeSubscribeQ(p); return err }, subq[:7]},
		{"subscribe-q corrupt tail", func(p []byte) error { _, _, err := DecodeSubscribeQ(p); return err }, subq[:len(subq)-1]},
		{"delta-q short", func(p []byte) error { _, _, err := DecodeDeltaQ(p); return err }, dq[:7]},
		{"delta-q corrupt tail", func(p []byte) error { _, _, err := DecodeDeltaQ(p); return err }, dq[:len(dq)-1]},
		{"stats truncated query table", func(p []byte) error { _, err := DecodeStats(p); return err }, stq[:len(stq)-1]},
		{"stats trailing bytes", func(p []byte) error { _, err := DecodeStats(p); return err }, append(append([]byte(nil), stq...), 7)},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.input); err == nil {
			t.Errorf("%s: decoder accepted malformed input", tc.name)
		}
	}
}
