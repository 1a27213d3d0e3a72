package wire

import (
	"math"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/serve"
)

// wireGroupsIdentical compares grouped results bit-identically, the standard
// the differential replication suite holds every path to.
func wireGroupsIdentical(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) {
			return false
		}
		for j := range a[i].Key {
			if math.Float64bits(a[i].Key[j]) != math.Float64bits(b[i].Key[j]) {
				return false
			}
		}
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// subscribeRaw subscribes rc to QueryID 1 and asserts the MsgSubscribed ack.
func subscribeRaw(t *testing.T, rc *rawConn, req Subscribe, wantShards uint32) (uint64, Subscribed) {
	t.Helper()
	id := rc.send(MsgSubscribeQ, EncodeSubscribeQ(nil, 1, req))
	tp, rid, body := rc.recv()
	if tp != MsgSubscribed || rid != id {
		t.Fatalf("subscribe reply %s (id %d), want subscribed echoing %d", tp, rid, id)
	}
	ack, err := DecodeSubscribed(body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Shards != wantShards || ack.Epoch == 0 {
		t.Fatalf("subscribed ack %+v, want %d shards and a nonzero epoch", ack, wantShards)
	}
	return id, ack
}

// catchUpView reads pushed MsgDeltaQ frames of QueryID 1 off rc into view
// until every shard reaches its target version, then asserts the view
// reconstructs that query's grouped results bit-identically.
func catchUpView(t *testing.T, rc *rawConn, subID uint64, view *serve.View,
	cat *catalog.Service, what string) {
	t.Helper()
	versions, err := cat.ShardVersions(1)
	if err != nil {
		t.Fatal(err)
	}
	target := make(map[int]uint64)
	for _, sv := range versions {
		target[sv.Shard] = sv.Version
	}
	caughtUp := func() bool {
		got := make(map[int]uint64)
		for _, sv := range view.Versions() {
			got[sv.Shard] = sv.Version
		}
		for shard, v := range target {
			if got[shard] < v {
				return false
			}
		}
		return true
	}
	for !caughtUp() {
		tp, id, body := rc.recv()
		if tp != MsgDeltaQ || id != subID {
			t.Fatalf("%s: push %s (id %d), want delta-q echoing %d", what, tp, id, subID)
		}
		qid, f, err := DecodeDeltaQ(body)
		if err != nil || qid != 1 {
			t.Fatalf("%s: push for query %d: %v", what, qid, err)
		}
		if err := view.Apply(f); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	want, err := cat.ResultGrouped(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := view.Grouped(); !wireGroupsIdentical(got, want) {
		t.Fatalf("%s: subscriber view diverged:\n got %v\nwant %v", what, got, want)
	}
}

// TestServerSubscribePush is the wire half of the differential subscription
// proof: frames pushed over TCP, concatenated into a View, reconstruct the
// server's grouped results bit-identically — through a mid-stream attach and
// through an idle period longer than the server's read deadline (a subscribed
// connection legitimately goes silent and must not be torn down).
func TestServerSubscribePush(t *testing.T) {
	cat := oneQueryCatalog(t, catalog.Options{Shards: 2, BatchSize: 8})
	addr := startServer(t, cat, ServerConfig{IdleTimeout: 100 * time.Millisecond})

	events := symEvents(19, 1800, 11)
	feeder := dialRaw(t, addr, 1)
	seq := uint64(0)
	feed := func(from, to int) {
		t.Helper()
		raw := encodeEvents(events[from:to])
		for i := 0; i < len(raw); i += 100 {
			end := min(i+100, len(raw))
			seq++
			feeder.send(MsgApplyBatch, EncodeBatch(nil, seq, raw[i:end]))
			if tp, _, _ := feeder.recv(); tp != MsgAck {
				t.Fatalf("batch reply %s, want ack", tp)
			}
		}
		feeder.send(MsgDrain, nil)
		if tp, _, _ := feeder.recv(); tp != MsgAck {
			t.Fatal("drain not acked")
		}
	}

	// Attach mid-stream: the seed frames carry the current full state.
	feed(0, 900)
	sub := dialRaw(t, addr, 2)
	subID, _ := subscribeRaw(t, sub, Subscribe{}, 2)
	view := serve.NewView()
	catchUpView(t, sub, subID, view, cat, "mid-stream attach")

	// Go silent past the idle deadline; the subscription must stay alive and
	// keep receiving pushes afterwards. The feeder connection, by contrast,
	// is legitimately idled out — re-dial it and continue the session (the
	// sequence numbers survive the reconnect by design).
	time.Sleep(300 * time.Millisecond)
	feeder = dialRaw(t, addr, 1)
	feed(900, len(events))
	catchUpView(t, sub, subID, view, cat, "after idle period")
}

func events1() engine.Event {
	return engine.Insert(map[string]float64{"sym": 1, "price": 4, "volume": 2})
}

// TestServerReadOnly pins the replica serving contract: over a follower
// catalog every write-carrying request — registration included — is refused
// with CodeReadOnly without spending admission tokens, while reads and
// subscriptions are served in full.
func TestServerReadOnly(t *testing.T) {
	dir := t.TempDir()
	primary := oneQueryCatalog(t, catalog.Options{Shards: 2, Dir: dir})
	defer primary.Close()
	if err := primary.ApplyBatch(symEvents(23, 500, 7)); err != nil {
		t.Fatal(err)
	}
	if err := primary.DrainAll(); err != nil {
		t.Fatal(err)
	}
	fol, err := catalog.Follow(catalog.Options{Dir: dir, Shards: 2}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, fol, ServerConfig{})

	rc := dialRaw(t, addr, 7)
	ev := engine.EncodeEvent(nil, events1())
	rc.send(MsgApplyBatch, EncodeBatch(nil, 1, [][]byte{ev}))
	rc.errCode(CodeReadOnly)
	rc.send(MsgDrain, nil)
	rc.errCode(CodeReadOnly)
	rc.send(MsgCheckpoint, nil)
	rc.errCode(CodeReadOnly)
	rc.send(MsgRegister, EncodeRegister(nil, catSQLEq))
	rc.errCode(CodeReadOnly)
	rc.send(MsgUnregister, EncodeQueryID(nil, 1))
	rc.errCode(CodeReadOnly)

	// Reads still flow, bit-identical to the primary.
	rc.send(MsgResultQ, EncodeQueryID(nil, 1))
	_, _, body := rc.recv()
	got, err := DecodeScalar(body)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := primary.Result(1); got != want {
		t.Fatalf("read-only Result = %v, want %v", got, want)
	}

	// Refused writes never touched the admission limiter.
	rc.send(MsgStats, nil)
	_, _, body = rc.recv()
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Accepted != 0 || st.Server.InFlight != 0 || st.Server.Shed != 0 {
		t.Fatalf("read-only server spent admission tokens: %+v", st.Server)
	}

	// Subscriptions are a read and must work: the seed frames alone
	// reconstruct the full state.
	sub := dialRaw(t, addr, 8)
	subID, _ := subscribeRaw(t, sub, Subscribe{}, 2)
	view := serve.NewView()
	catchUpView(t, sub, subID, view, fol, "read-only subscribe")
}

// TestDecodeDeltaMalformed is the rejection table for pushed delta frames: a
// client must be able to refuse every structurally invalid frame without
// panicking, over-reading, or accepting an inconsistent version window.
func TestDecodeDeltaMalformed(t *testing.T) {
	good := encodeDelta(nil, serve.DeltaFrame{Shard: 1, Version: 8, Base: 6,
		Groups: []engine.GroupResult{{Key: []float64{2}, Value: 11.5}}})
	if _, err := decodeDelta(good); err != nil {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	patch := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"truncated header", good[:20]},
		{"truncated groups", good[:len(good)-3]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"unknown flags", patch(func(b []byte) { b[20] |= 0x02 })},
		{"full frame with nonzero base", patch(func(b []byte) { b[20] |= deltaFullFlag })},
		{"base beyond version", patch(func(b []byte) { le.PutUint64(b[12:], 9) })},
		{"group count overruns body", patch(func(b []byte) { le.PutUint32(b[21:], 1<<20) })},
		{"key width overruns body", patch(func(b []byte) { le.PutUint32(b[25:], maxGroupKey+1) })},
	}
	for _, tc := range cases {
		if _, err := decodeDelta(tc.body); err == nil {
			t.Errorf("%s: malformed delta accepted", tc.name)
		}
	}
}

// TestDecodeSubscribeMalformed is the matching rejection table for the
// subscribe request body.
func TestDecodeSubscribeMalformed(t *testing.T) {
	good := encodeSubscribe(nil, Subscribe{Keys: [][]float64{{1, 2}}, Epoch: 5,
		Resume: []serve.ShardVersion{{Shard: 0, Version: 3}}})
	if _, err := decodeSubscribe(good); err != nil {
		t.Fatalf("canonical subscribe rejected: %v", err)
	}
	patch := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"truncated keys", good[:7]},
		{"truncated resume", good[:len(good)-5]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"key count overruns body", patch(func(b []byte) { le.PutUint32(b, 1<<20) })},
		{"key width overruns body", patch(func(b []byte) { le.PutUint32(b[4:], maxGroupKey+1) })},
		{"resume count mismatch", patch(func(b []byte) { le.PutUint32(b[len(b)-16:], 2) })},
	}
	for _, tc := range cases {
		if _, err := decodeSubscribe(tc.body); err == nil {
			t.Errorf("%s: malformed subscribe accepted", tc.name)
		}
	}
}

// TestSubscribeCodecRoundTrip pins the v3 bodies' encode/decode symmetry.
func TestSubscribeCodecRoundTrip(t *testing.T) {
	s := Subscribe{Keys: [][]float64{{1}, {2, 3}}, Epoch: 77,
		Resume: []serve.ShardVersion{{Shard: 0, Version: 9}, {Shard: 2, Version: 4}}}
	got, err := decodeSubscribe(encodeSubscribe(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != 2 || got.Keys[1][1] != 3 || got.Epoch != 77 ||
		len(got.Resume) != 2 || got.Resume[1] != (serve.ShardVersion{Shard: 2, Version: 4}) {
		t.Fatalf("subscribe round trip = %+v", got)
	}

	ack, err := DecodeSubscribed(EncodeSubscribed(nil, Subscribed{Shards: 3, Epoch: 42}))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Shards != 3 || ack.Epoch != 42 {
		t.Fatalf("subscribed round trip = %+v", ack)
	}

	f := serve.DeltaFrame{Shard: 2, Version: 10, Base: 0, Full: true,
		Groups: []engine.GroupResult{{Key: []float64{1, 2}, Value: 3.5}}}
	gf, err := decodeDelta(encodeDelta(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	if gf.Shard != 2 || gf.Version != 10 || !gf.Full || len(gf.Groups) != 1 ||
		gf.Groups[0].Value != 3.5 {
		t.Fatalf("delta round trip = %+v", gf)
	}
}
