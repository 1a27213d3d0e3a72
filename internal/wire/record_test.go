package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rpai/internal/catalog"
	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
)

// TestServerLogsRecordAsReceived checks the identity the catalog's record
// path rests on: the WAL record of a wire batch is the batch body after its
// 12-byte header, and that is byte for byte the record encoding the decoded
// events again would produce (a u32 length and an EncodeEvent payload per
// event). Events carry a column no query reads, which is logged as received
// and skipped by every executor.
func TestServerLogsRecordAsReceived(t *testing.T) {
	dir := t.TempDir()
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 2, Dir: dir}), ServerConfig{})
	rc := dialRaw(t, addr, 9)
	events := symEvents(29, 400, 6)
	for i, e := range events {
		if i%3 == 0 {
			e.Tuple["note"] = float64(i)
		}
	}
	var bodies [][]byte
	for i, seq := 0, uint64(1); i < len(events); i, seq = i+50, seq+1 {
		body := EncodeBatch(nil, seq, encodeEvents(events[i:min(i+50, len(events))]))
		bodies = append(bodies, body)
		rc.send(MsgApplyBatch, body)
		if tp, _, _ := rc.recv(); tp != MsgAck {
			t.Fatalf("batch %d not acked", seq)
		}
	}
	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}
	var recs [][]byte
	if _, _, err := checkpoint.ReadWAL(checkpoint.WALPath(dir, 1, 0), func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(bodies) {
		t.Fatalf("WAL holds %d records for %d batches", len(recs), len(bodies))
	}
	for i, body := range bodies {
		if !bytes.Equal(recs[i], body[12:]) {
			t.Fatalf("record %d is not the batch body as received", i)
		}
		_, raw, err := DecodeBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, p := range raw {
			e, err := engine.DecodeEvent(p)
			if err != nil {
				t.Fatal(err)
			}
			want = AppendBatchEvent(want, engine.EncodeEvent(nil, e))
		}
		if !bytes.Equal(recs[i], want) {
			t.Fatalf("record %d differs from the encoding of its decoded events", i)
		}
	}
}

// TestServerDecoderKeepsNoForeignNames streams 100k events over one
// connection, each carrying a column name never seen before beside the ones
// the registered query reads. Admission ignores unread columns, so a decoder
// that interned every name it saw would grow the server's heap by every
// name, for the life of the connection; decoding against the catalog's
// schema keeps only the schema's names (and the layout of the last event).
func TestServerDecoderKeepsNoForeignNames(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 100k events")
	}
	addr := startServer(t, oneQueryCatalog(t, catalog.Options{Shards: 1}), ServerConfig{})
	rc := dialRaw(t, addr, 11)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm the connection, the partitions and the index levels first.
	send := func(seq uint64, from, n int) {
		evs := make([][]byte, n)
		for i := range evs {
			k := from + i
			evs[i] = engine.EncodeEvent(nil, engine.Insert(query.Tuple{
				"sym": float64(k % 4), "price": float64(k%16 + 1), "volume": 1,
				fmt.Sprintf("unread-column-%040d", k): 1,
			}))
		}
		rc.send(MsgApplyBatch, EncodeBatch(nil, seq, evs))
		if tp, _, _ := rc.recv(); tp != MsgAck {
			t.Fatalf("batch %d not acked", seq)
		}
	}
	const batch = 1000
	send(1, 0, batch)
	before := heap()
	for seq := uint64(2); seq <= 100; seq++ {
		send(seq, int(seq-1)*batch, batch)
	}
	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}
	// 99k fresh 54-byte names interned would take well over 8 MB.
	if grew := int64(heap()) - int64(before); grew > 2<<20 {
		t.Fatalf("server heap grew %d bytes over 99k events with fresh unread column names", grew)
	}
}
