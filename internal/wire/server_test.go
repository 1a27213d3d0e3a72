package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
)

// vwapSpec is Example 2.2, the per-partition query of the serving tests.
func vwapSpec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// symEvents generates an insert/delete trace over "sym"-keyed partitions.
func symEvents(seed int64, n, partitions int) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	out := make([]engine.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < 0.25 {
			j := rng.Intn(len(live))
			out = append(out, engine.Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"sym":    float64(rng.Intn(partitions)),
			"price":  float64(rng.Intn(30) + 1),
			"volume": float64(rng.Intn(20) + 1),
		}
		live = append(live, t)
		out = append(out, engine.Insert(t))
	}
	return out
}

// vwapSQL is vwapSpec as SQL, the one query of the single-query tests.
const vwapSQL = catSQLVWAP

// oneQueryCatalog builds a catalog serving exactly vwapSQL as QueryID 1 —
// what rpaiserver -register boots.
func oneQueryCatalog(t *testing.T, opt catalog.Options) *catalog.Service {
	t.Helper()
	opt.PartitionBy = []string{"sym"}
	cat, err := catalog.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.Register(vwapSQL); err != nil {
		t.Fatal(err)
	}
	return cat
}

// bootServer starts a Server over cat on a loopback listener. Cleanup closes
// the server, then the catalog.
func bootServer(t *testing.T, cat *catalog.Service, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCatalogServer(cat, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		cat.Close()
	})
	return srv, ln.Addr().String()
}

func startServer(t *testing.T, cat *catalog.Service, cfg ServerConfig) string {
	t.Helper()
	_, addr := bootServer(t, cat, cfg)
	return addr
}

// rawConn is a frame-level test client: no pipelining, no reconnects, so the
// tests control exactly what goes on the wire.
type rawConn struct {
	t      *testing.T
	nc     net.Conn
	nextID uint64
}

func dialRaw(t *testing.T, addr string, session byte) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	rc := &rawConn{t: t, nc: nc}
	var sess [SessionIDLen]byte
	sess[0] = session
	rc.send(MsgHello, EncodeHello(nil, Hello{Version: Version, Session: sess}))
	tp, _, body := rc.recv()
	if tp != MsgWelcome {
		t.Fatalf("handshake reply %s, want welcome", tp)
	}
	w, err := DecodeWelcome(body)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != Version {
		t.Fatalf("welcome carries version %d, want %d", w.Version, Version)
	}
	return rc
}

func (rc *rawConn) send(t MsgType, body []byte) uint64 {
	rc.t.Helper()
	id := rc.nextID
	rc.nextID++
	if err := WriteFrame(rc.nc, EncodeMsg(nil, t, id, body)); err != nil {
		rc.t.Fatal(err)
	}
	return id
}

func (rc *rawConn) recv() (MsgType, uint64, []byte) {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(rc.nc, 0)
	if err != nil {
		rc.t.Fatal(err)
	}
	t, id, body, err := DecodeMsg(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return t, id, body
}

// errCode asserts the next reply is a MsgError with the given code.
func (rc *rawConn) errCode(want Code) {
	rc.t.Helper()
	t, _, body := rc.recv()
	if t != MsgError {
		rc.t.Fatalf("reply %s, want error", t)
	}
	code, _, err := DecodeError(body)
	if err != nil {
		rc.t.Fatal(err)
	}
	if code != want {
		rc.t.Fatalf("error code %d, want %d", code, want)
	}
}

func encodeEvents(events []engine.Event) [][]byte {
	out := make([][]byte, len(events))
	for i, e := range events {
		out[i] = engine.EncodeEvent(nil, e)
	}
	return out
}

// TestServerRoundtrip drives the request catalogue over one loopback
// connection to a one-query catalog and checks the networked results
// are bit-identical to an in-process service fed the same trace.
func TestServerRoundtrip(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 2000, 17)

	ref, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}

	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 4}), ServerConfig{})
	rc := dialRaw(t, addr, 1)

	// The trace in sequenced batches of 256.
	raw := encodeEvents(events)
	seq := uint64(0)
	for i := 0; i < len(raw); i += 256 {
		end := min(i+256, len(raw))
		seq++
		rc.send(MsgApplyBatch, EncodeBatch(nil, seq, raw[i:end]))
		tp, _, body := rc.recv()
		if tp != MsgAck {
			t.Fatalf("batch reply %s, want ack", tp)
		}
		if n, _ := DecodeAck(body); n != uint32(end-i) {
			t.Fatalf("batch ack %d, want %d", n, end-i)
		}
	}

	// A duplicate resend of the last batch must ack 0 without re-applying.
	last := raw[(len(raw)-1)/256*256:]
	rc.send(MsgApplyBatch, EncodeBatch(nil, seq, last))
	if tp, _, body := rc.recv(); tp != MsgAck {
		t.Fatalf("dup batch reply %s, want ack", tp)
	} else if n, _ := DecodeAck(body); n != 0 {
		t.Fatalf("dup batch ack %d, want 0", n)
	}
	// A gap must be refused.
	rc.send(MsgApplyBatch, EncodeBatch(nil, seq+2, last))
	rc.errCode(CodeSeqGap)

	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}

	rc.send(MsgResultQ, EncodeQueryID(nil, 1))
	_, _, body := rc.recv()
	got, err := DecodeScalar(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Result(); got != want {
		t.Fatalf("networked Result = %v, want %v", got, want)
	}

	rc.send(MsgGroupedQ, EncodeQueryID(nil, 1))
	_, _, body = rc.recv()
	groups, err := DecodeGrouped(body)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ResultGrouped()
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i := range groups {
		if groups[i].Value != want[i].Value || groups[i].Key[0] != want[i].Key[0] {
			t.Fatalf("group %d = %+v, want %+v", i, groups[i], want[i])
		}
	}

	rc.send(MsgStats, nil)
	_, _, body = rc.recv()
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.ActiveConns != 1 || st.Server.Shed != 0 || len(st.Shards) != 4 {
		t.Fatalf("unexpected stats %+v", st)
	}
	var applied uint64
	for _, sh := range st.Shards {
		applied += sh.Applied
	}
	if applied != uint64(len(events)) {
		t.Fatalf("shards report %d applied, want %d", applied, len(events))
	}
}

// TestServerOverloadSheds saturates the admission limiter and asserts the
// overload contract: work is shed with CodeOverloaded, read-only requests
// still go through, and the stats RPC reports the shed count and a bounded
// in-flight gauge. The limiter is saturated by holding its tokens directly —
// what requests stuck inside the catalog would do — because nothing a client
// can send wedges a catalog on demand.
func TestServerOverloadSheds(t *testing.T) {
	srv, addr := bootServer(t, oneQueryCatalog(t, catalog.Options{}), ServerConfig{MaxInFlight: 2, PerConnQueue: 4})
	ev := engine.EncodeEvent(nil, engine.Insert(query.Tuple{"sym": 1, "price": 2, "volume": 3}))
	batch := EncodeBatch(nil, 0, [][]byte{ev})

	probe := dialRaw(t, addr, 3)
	probe.send(MsgApplyBatch, batch)
	if tp, _, _ := probe.recv(); tp != MsgAck {
		t.Fatalf("batch below the limit replied %s", tp)
	}
	// The ack can arrive before the shard worker counts the batch as
	// applied. Stats bypass the limiter, so wait on them for the count
	// before saturating the server, or the assertion below races the worker.
	for deadline := time.Now().Add(10 * time.Second); ; {
		probe.send(MsgStats, nil)
		_, _, body := probe.recv()
		st, err := DecodeStats(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Queries) == 1 && st.Queries[0].Applied == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the first batch was never counted as applied: %+v", st.Queries)
		}
		time.Sleep(time.Millisecond)
	}
	srv.tokens <- struct{}{}
	srv.tokens <- struct{}{}

	// Work must now be shed immediately.
	probe.send(MsgApplyBatch, batch)
	probe.errCode(CodeOverloaded)
	probe.send(MsgCheckpoint, nil)
	probe.errCode(CodeOverloaded)
	probe.send(MsgDrain, nil)
	probe.errCode(CodeOverloaded)
	probe.send(MsgRegister, EncodeRegister(nil, catSQLEq))
	probe.errCode(CodeOverloaded)

	// Reads bypass the limiter: the server stays observable while saturated.
	probe.send(MsgResultQ, EncodeQueryID(nil, 1))
	if tp, _, _ := probe.recv(); tp != MsgScalar {
		t.Fatalf("result under overload replied %s", tp)
	}
	probe.send(MsgStats, nil)
	_, _, body := probe.recv()
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Shed != 4 || st.Server.Accepted != 1 || st.Server.InFlight != 2 {
		t.Fatalf("saturated server stats %+v, want 4 shed, 1 accepted, 2 in flight", st.Server)
	}
	if len(st.Queries) != 1 || st.Queries[0].Applied != 1 {
		t.Fatalf("shed work reached the catalog: %+v", st.Queries)
	}

	// Release the tokens: normal service resumes.
	<-srv.tokens
	<-srv.tokens
	probe.send(MsgApplyBatch, batch)
	if tp, _, _ := probe.recv(); tp != MsgAck {
		t.Fatalf("batch after recovery replied %s", tp)
	}
	probe.send(MsgDrain, nil)
	if tp, _, _ := probe.recv(); tp != MsgAck {
		t.Fatal("drain after recovery not acked")
	}
}

// TestServerVersionMismatch pins the handshake refusal: there is one
// protocol version, and a hello carrying any other — newer, or one of the
// retired versions 2 through 6 — gets CodeVersion.
func TestServerVersionMismatch(t *testing.T) {
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{}), ServerConfig{})
	for _, v := range []uint32{Version + 7, Version + 1, 6, 5, 4, 3, 2, 0} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		hello := EncodeHello(nil, Hello{Version: v})
		if err := WriteFrame(nc, EncodeMsg(nil, MsgHello, 0, hello)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := ReadFrame(nc, 0)
		if err != nil {
			t.Fatal(err)
		}
		tp, _, body, err := DecodeMsg(payload)
		if err != nil || tp != MsgError {
			t.Fatalf("hello v%d: reply %s (err %v), want error", v, tp, err)
		}
		code, _, err := DecodeError(body)
		if err != nil || code != CodeVersion {
			t.Fatalf("hello v%d: code %d (err %v), want CodeVersion", v, code, err)
		}
	}
}

// TestServerSurvivesGarbage throws corrupt and hostile bytes at the server
// and checks it tears those connections down without disturbing a well-
// behaved one.
func TestServerSurvivesGarbage(t *testing.T) {
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 2}), ServerConfig{MaxFrame: 1 << 16})

	send := func(raw []byte) {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server must close the connection, not hang or crash.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1024)
		for {
			if _, err := nc.Read(buf); err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("server left garbage connection open")
				}
				return // reset is fine too
			}
		}
	}

	// Raw garbage, a hostile length prefix, a corrupted checksum, and a valid
	// frame whose payload is not a message.
	send([]byte("GET / HTTP/1.1\r\n\r\n"))
	send([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	frame := AppendFrame(nil, EncodeMsg(nil, MsgHello, 0, EncodeHello(nil, Hello{Version: Version})))
	frame[len(frame)-1] ^= 0x40
	send(frame)
	send(AppendFrame(nil, []byte{9}))

	// A well-behaved connection still gets full service.
	rc := dialRaw(t, addr, 4)
	rc.send(MsgResultQ, EncodeQueryID(nil, 1))
	if tp, _, _ := rc.recv(); tp != MsgScalar {
		t.Fatalf("healthy connection got %s", tp)
	}
}

// TestServerRefusesRetiredTypes sends, on one live session, the committed
// fuzz inputs that carry a retired request type: the single-event apply (2)
// and the un-routed result, grouped result and subscribe (5, 6, 15). Each is
// refused as an unknown request with CodeBadRequest, and the connection goes
// on answering a QueryID-routed read.
func TestServerRefusesRetiredTypes(t *testing.T) {
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 2}), ServerConfig{})
	rc := dialRaw(t, addr, 4)
	retired := map[MsgType]int{2: 0, 5: 0, 6: 0, 15: 0}
	for _, frame := range corpusFrames(t) {
		payload, err := ReadFrame(bytes.NewReader(frame), 0)
		if err != nil {
			continue
		}
		tp, _, body, err := DecodeMsg(payload)
		if _, ok := retired[tp]; !ok || err != nil {
			continue
		}
		retired[tp]++
		rc.send(tp, body)
		rc.errCode(CodeBadRequest)
		rc.send(MsgResultQ, EncodeQueryID(nil, 1))
		if got, _, _ := rc.recv(); got != MsgScalar {
			t.Fatalf("connection after a type-%d request got %s", tp, got)
		}
	}
	for tp, n := range retired {
		if n == 0 {
			t.Fatalf("no committed FuzzWireFrames input carries type %d", tp)
		}
	}
}

// corpusFrames reads the committed FuzzWireFrames seed inputs.
func corpusFrames(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWireFrames", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzWireFrames corpus: %d files, %v", len(files), err)
	}
	var out [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(b)), "\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a go test fuzz v1 []byte input", f)
		}
		v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(v))
	}
	return out
}

// TestServerCheckpointRPC triggers a checkpoint over the wire: the data
// directory rotates to generation 2, and a follower opened on it serves what
// the server does.
func TestServerCheckpointRPC(t *testing.T) {
	dir := t.TempDir()
	events := symEvents(13, 600, 7)
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 2, Dir: dir}), ServerConfig{})
	rc := dialRaw(t, addr, 5)
	rc.send(MsgApplyBatch, EncodeBatch(nil, 1, encodeEvents(events)))
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("batch not acked")
	}
	rc.send(MsgCheckpoint, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("checkpoint not acked")
	}
	rc.send(MsgResultQ, EncodeQueryID(nil, 1))
	_, _, body := rc.recv()
	want, err := DecodeScalar(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(checkpoint.WALPath(dir, 2, 0)); err != nil {
		t.Fatalf("no generation-2 WAL after the checkpoint RPC: %v", err)
	}
	if _, err := os.Stat(checkpoint.WALPath(dir, 1, 0)); !os.IsNotExist(err) {
		t.Fatalf("generation-1 WAL survived the rotation (stat: %v)", err)
	}

	fol, err := catalog.Follow(catalog.Options{Dir: dir, Shards: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if got, err := fol.Result(1); err != nil || got != want {
		t.Fatalf("checkpointed Result = %v (%v), want %v", got, err, want)
	}

	// Without a data directory the RPC is refused, not acknowledged.
	plain := dialRaw(t, startServer(t, oneQueryCatalog(t, catalog.Options{}), ServerConfig{}), 6)
	plain.send(MsgCheckpoint, nil)
	plain.errCode(CodeBadRequest)
}

// TestServerRefusesPoisonBatch sends, over the wire, a batch with an event
// the range-shift executor cannot maintain (an insert that omits `volume`, so
// its inner weight reads 0). The reply is CodeBadRequest, the connection and
// the daemon keep serving — the sequence number is not consumed, so the
// client may resend it corrected — and a follower on the same directory, fed
// only by what reached the WAL, agrees with the primary.
func TestServerRefusesPoisonBatch(t *testing.T) {
	dir := t.TempDir()
	events := symEvents(17, 300, 5)
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 2, Dir: dir}), ServerConfig{})
	rc := dialRaw(t, addr, 9)
	rc.send(MsgApplyBatch, EncodeBatch(nil, 1, encodeEvents(events[:150])))
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("batch not acked")
	}
	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}
	result := func() float64 {
		rc.send(MsgResultQ, EncodeQueryID(nil, 1))
		_, _, body := rc.recv()
		v, err := DecodeScalar(body)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	before := result()

	poison := append(append([]engine.Event{}, events[150:160]...),
		engine.Insert(query.Tuple{"sym": 1, "price": 12}))
	rc.send(MsgApplyBatch, EncodeBatch(nil, 2, encodeEvents(poison)))
	rc.errCode(CodeBadRequest)
	if got := result(); got != before {
		t.Fatalf("refused batch moved the result: %v, was %v", got, before)
	}

	rc.send(MsgApplyBatch, EncodeBatch(nil, 2, encodeEvents(events[150:])))
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("the refused sequence number, resent corrected, was not acked")
	}
	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}
	want := result()

	rc.send(MsgStats, nil)
	_, _, body := rc.recv()
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) != 1 || st.Queries[0].Rejected != uint64(len(poison)) {
		t.Fatalf("stats %+v, want one query with Rejected %d", st.Queries, len(poison))
	}

	fol, err := catalog.Follow(catalog.Options{Dir: dir, Shards: 3}, 0)
	if err != nil {
		t.Fatalf("follower on the directory that saw a poison batch: %v", err)
	}
	defer fol.Close()
	if got, err := fol.Result(1); err != nil || got != want {
		t.Fatalf("follower Result = %v (%v), want %v", got, err, want)
	}
}
