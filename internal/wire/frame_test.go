package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"rpai/internal/engine"
	"rpai/internal/serve"
)

// TestFrameRoundtrip pins the frame codec and its failure modes.
func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xab}, 4096)}
	var wireBuf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&wireBuf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wireBuf.Bytes())
	for i, p := range payloads {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %x, want %x", i, got, p)
		}
	}
	// Clean boundary: plain EOF, not corruption.
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("at boundary: %v, want io.EOF", err)
	}

	// A flipped payload byte must be a checksum failure.
	raw := AppendFrame(nil, []byte("payload"))
	raw[len(raw)-1] ^= 1
	if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupted payload: %v, want ErrCorruptFrame", err)
	}
	// A truncated frame must be corruption, not EOF.
	raw = AppendFrame(nil, []byte("payload"))
	if _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-2]), 0); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated frame: %v, want ErrCorruptFrame", err)
	}
	// An oversized length prefix must be refused before allocation.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}), 1<<20); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized frame: %v, want ErrCorruptFrame", err)
	}
}

// TestMessageCodecs pins an encode/decode roundtrip for every message body.
func TestMessageCodecs(t *testing.T) {
	h := Hello{Version: 3, Session: [SessionIDLen]byte{1, 2, 3, 15: 16}}
	if got, err := DecodeHello(EncodeHello(nil, h)); err != nil || got != h {
		t.Fatalf("hello: %+v, %v", got, err)
	}
	w := Welcome{Version: 1, Shards: 8}
	if body := EncodeWelcome(nil, w); len(body) != 8 {
		t.Fatalf("welcome body is %d bytes, want 8", len(body))
	} else if got, err := DecodeWelcome(body); err != nil || got != w {
		t.Fatalf("welcome: %+v, %v", got, err)
	}

	events := [][]byte{
		engine.EncodeEvent(nil, engine.Insert(map[string]float64{"sym": 1, "price": 2})),
		engine.EncodeEvent(nil, engine.Delete(map[string]float64{"sym": 1, "price": 2})),
		{},
	}
	seq, got, err := DecodeBatch(EncodeBatch(nil, 42, events))
	if err != nil || seq != 42 || len(got) != len(events) {
		t.Fatalf("batch: seq %d, %d events, %v", seq, len(got), err)
	}
	for i := range events {
		if !bytes.Equal(got[i], events[i]) {
			t.Fatalf("batch event %d mismatch", i)
		}
	}

	if n, err := DecodeAck(EncodeAck(nil, 7)); err != nil || n != 7 {
		t.Fatalf("ack: %d, %v", n, err)
	}
	for _, v := range []float64{0, -1.5, math.Inf(1), math.Pi} {
		if got, err := DecodeScalar(EncodeScalar(nil, v)); err != nil || got != v {
			t.Fatalf("scalar %v: %v, %v", v, got, err)
		}
	}

	groups := []engine.GroupResult{
		{Key: []float64{1}, Value: 10.5},
		{Key: []float64{2, 3}, Value: -4},
		{Key: nil, Value: 0},
	}
	gotG, err := DecodeGrouped(EncodeGrouped(nil, groups))
	if err != nil || len(gotG) != len(groups) {
		t.Fatalf("grouped: %d, %v", len(gotG), err)
	}
	for i := range groups {
		if gotG[i].Value != groups[i].Value || len(gotG[i].Key) != len(groups[i].Key) {
			t.Fatalf("group %d: %+v, want %+v", i, gotG[i], groups[i])
		}
	}

	st := Stats{
		Server: ServerStats{Accepted: 1, Shed: 2, InFlight: 3, ActiveConns: 4, Sessions: 5},
		Shards: []serve.ShardStats{
			{Shard: 0, Applied: 10, Flushed: 9, QueueDepth: 1, Partitions: 3, EnqueueWaitNS: 77, BatchSize: 64},
			{Shard: 1, Applied: 20, Flushed: 20, QueueDepth: 0, Partitions: 5},
		},
		Queries: []QueryStats{{ID: 1, SetID: 1, Applied: 30, Rejected: 2, Subscribers: 1, Strategy: "relstate", SQL: "SELECT 1"}},
	}
	gotS, err := DecodeStats(EncodeStats(nil, st))
	if err != nil || !reflect.DeepEqual(gotS, st) {
		t.Fatalf("stats: %+v, %v", gotS, err)
	}

	code, msg, err := DecodeError(EncodeError(nil, CodeSeqGap, "batch seq 9 after 3"))
	if err != nil || code != CodeSeqGap || msg != "batch seq 9 after 3" {
		t.Fatalf("error: %d %q %v", code, msg, err)
	}

	// Envelope roundtrip.
	tp, id, body, err := DecodeMsg(EncodeMsg(nil, MsgStatsReply, 99, []byte{1, 2, 3}))
	if err != nil || tp != MsgStatsReply || id != 99 || !bytes.Equal(body, []byte{1, 2, 3}) {
		t.Fatalf("envelope: %s %d %x %v", tp, id, body, err)
	}
}

// TestDecodersRejectGarbage spot-checks that truncations of valid bodies are
// refused with errors (the fuzz target covers the open-ended space).
func TestDecodersRejectGarbage(t *testing.T) {
	bodies := map[string][]byte{
		"hello":   EncodeHello(nil, Hello{Version: 1}),
		"welcome": EncodeWelcome(nil, Welcome{Shards: 2}),
		"batch":   EncodeBatch(nil, 1, [][]byte{{1, 2, 3}}),
		"grouped": EncodeGrouped(nil, []engine.GroupResult{{Key: []float64{1}, Value: 2}}),
		"stats":   EncodeStats(nil, Stats{Shards: []serve.ShardStats{{Shard: 1}}}),
		"error":   EncodeError(nil, CodeInternal, "boom"),
	}
	decode := map[string]func([]byte) error{
		"hello":   func(p []byte) error { _, err := DecodeHello(p); return err },
		"welcome": func(p []byte) error { _, err := DecodeWelcome(p); return err },
		"batch":   func(p []byte) error { _, _, err := DecodeBatch(p); return err },
		"grouped": func(p []byte) error { _, err := DecodeGrouped(p); return err },
		"stats":   func(p []byte) error { _, err := DecodeStats(p); return err },
		"error":   func(p []byte) error { _, _, err := DecodeError(p); return err },
	}
	for name, body := range bodies {
		for cut := 0; cut < len(body); cut++ {
			if err := decode[name](body[:cut]); err == nil {
				t.Errorf("%s: truncation to %d bytes accepted", name, cut)
			}
		}
	}
}
