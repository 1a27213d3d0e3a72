package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rpai/internal/paimap"
	"rpai/internal/rpai"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.F64(-3.25)
	e.Bytes([]byte{1, 2, 3})
	e.Str("hello")
	e.Bytes(nil)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.F64(); got != -3.25 {
		t.Fatalf("F64 = %g", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end sticks an error rather than fabricating zeros
	// silently forever.
	d.U64()
	if d.Err() == nil {
		t.Fatal("decoder did not report truncation")
	}
}

func TestFiniteF64RejectsNaN(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.F64(math.NaN())
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	d.FiniteF64()
	if d.Err() == nil {
		t.Fatal("FiniteF64 accepted NaN")
	}
}

func TestRecordRoundTripAndCorruption(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer record payload 123456789")}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteRecord(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()

	r := bytes.NewReader(full)
	for i, want := range payloads {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadRecord(r); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}

	// Every single-byte corruption must be detected.
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x01
		r := bytes.NewReader(mut)
		ok := true
		for j := range payloads {
			got, err := ReadRecord(r)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", i, err)
				}
				ok = false
				break
			}
			if !bytes.Equal(got, payloads[j]) {
				t.Fatalf("flip at %d: record %d silently decoded to %q", i, j, got)
			}
		}
		if ok {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}

	// Every truncation must either stop at a record boundary (clean EOF) or
	// report corruption — never return a wrong payload.
	for cut := 0; cut < len(full); cut++ {
		r := bytes.NewReader(full[:cut])
		n := 0
		for {
			got, err := ReadRecord(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut at %d: error %v does not wrap ErrCorrupt", cut, err)
				}
				break
			}
			if n >= len(payloads) || !bytes.Equal(got, payloads[n]) {
				t.Fatalf("cut at %d: bogus record %q", cut, got)
			}
			n++
		}
	}
}

func TestReadRecordLengthCap(t *testing.T) {
	var hdr [8]byte
	le.PutUint32(hdr[0:4], MaxRecord+1)
	_, err := ReadRecord(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: got %v", err)
	}
}

func TestCrashWriter(t *testing.T) {
	w := NewCrashWriter(10)
	n, err := w.Write([]byte("12345678"))
	if n != 8 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err = w.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, ErrCrash) {
		t.Fatalf("crashing write: n=%d err=%v", n, err)
	}
	if !w.Crashed() {
		t.Fatal("Crashed() = false after injected failure")
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash write: %v", err)
	}
	if got := string(w.Bytes()); got != "12345678ab" {
		t.Fatalf("surviving bytes = %q", got)
	}
}

func testParts() (Header, []Partition) {
	h := Header{Gen: 3, Seq: 7, Shard: 1, ShardCount: 4}
	parts := []Partition{
		{Key: []float64{1}, State: []byte("state-one")},
		{Key: []float64{2, 5}, State: []byte("state-two")},
		{Key: nil, State: nil},
	}
	return h, parts
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h, parts := testParts()
	path := SnapPath(dir, h.Gen, int(h.Shard))
	if err := WriteSnapshotFile(path, h, parts); err != nil {
		t.Fatal(err)
	}
	gh, gparts, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Fatalf("header = %+v, want %+v", gh, h)
	}
	if len(gparts) != len(parts) {
		t.Fatalf("got %d partitions, want %d", len(gparts), len(parts))
	}
	for i := range parts {
		if len(gparts[i].Key) != len(parts[i].Key) || !bytes.Equal(gparts[i].State, parts[i].State) {
			t.Fatalf("partition %d = %+v, want %+v", i, gparts[i], parts[i])
		}
		for j := range parts[i].Key {
			if gparts[i].Key[j] != parts[i].Key[j] {
				t.Fatalf("partition %d key mismatch", i)
			}
		}
	}
}

// TestSnapshotCrashInjectionMatrix aims a CrashWriter at every byte offset
// of a snapshot stream: the write must report the crash, and reading the
// surviving prefix must fail (the incomplete snapshot is detected, never
// silently decoded).
func TestSnapshotCrashInjectionMatrix(t *testing.T) {
	h, parts := testParts()
	var full bytes.Buffer
	if err := WriteSnapshot(&full, h, parts); err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit < full.Len(); limit++ {
		cw := NewCrashWriter(limit)
		if err := WriteSnapshot(cw, h, parts); !errors.Is(err, ErrCrash) {
			t.Fatalf("limit %d: write error = %v, want ErrCrash", limit, err)
		}
		if !bytes.Equal(cw.Bytes(), full.Bytes()[:limit]) {
			t.Fatalf("limit %d: surviving prefix diverges from the full stream", limit)
		}
		if _, _, err := ReadSnapshot(bytes.NewReader(cw.Bytes())); err == nil {
			t.Fatalf("limit %d: truncated snapshot decoded without error", limit)
		}
	}
	// Sanity: the untruncated stream still decodes.
	if _, _, err := ReadSnapshot(bytes.NewReader(full.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	h := Header{Gen: 1, Seq: 2, Shard: 0, ShardCount: 2}
	path := WALPath(dir, h.Gen, int(h.Shard))
	w, err := CreateWAL(path, h)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("ev-1"), []byte("ev-two"), []byte("ev-3!"), {}, []byte("ev-five")}
	// boundaries[i] is the file size after i records: the exact set of
	// truncation points that are clean record boundaries.
	boundaries := []int64{fileSize(t, path)}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, fileSize(t, path))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		gh, n, err := ReadWAL(torn, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if int64(cut) < boundaries[0] {
			// Header torn: the file is unusable and must say so.
			if err == nil {
				t.Fatalf("cut %d: torn header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if gh != h {
			t.Fatalf("cut %d: header = %+v", cut, gh)
		}
		want := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= int64(cut) {
				want = i
			}
		}
		if n != want {
			t.Fatalf("cut %d: delivered %d records, want %d", cut, n, want)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, got[i], payloads[i])
			}
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: %v", err)
	}
	m := Manifest{Gen: 9, Shards: 3}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("manifest = %+v, want %+v", got, m)
	}
	// Overwrite is atomic-swap semantics: the new value wins.
	m2 := Manifest{Gen: 10, Shards: 5}
	if err := WriteManifest(dir, m2); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadManifest(dir); got != m2 {
		t.Fatalf("manifest after swap = %+v, want %+v", got, m2)
	}
	// Corruption is detected.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("RPMFgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestEntriesCodecCanonical holds the entry-list codec to its canonical
// form: the length, then each key and value in ascending key order (the
// layout the treemap codec it replaced wrote, so its streams still decode),
// re-encoded byte for byte; out-of-order keys are refused.
func TestEntriesCodecCanonical(t *testing.T) {
	keys, vals := []float64{1, 2, 5, 9}, []float64{-3, 0.5, 2, 4}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Entries(keys, vals)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	we := NewEncoder(&want)
	we.U32(4)
	for i, k := range keys {
		we.F64(k)
		we.F64(vals[i])
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("entry list layout changed")
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	gk, gv := d.Entries()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gk, keys) || !slices.Equal(gv, vals) {
		t.Fatalf("decoded %v %v, want %v %v", gk, gv, keys, vals)
	}
	var buf2 bytes.Buffer
	NewEncoder(&buf2).Entries(gk, gv)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("entry list re-encode is not byte-identical")
	}
	// Out-of-order entries are rejected (the canonical form is sorted).
	var bad bytes.Buffer
	be := NewEncoder(&bad)
	be.U32(2)
	be.F64(5)
	be.F64(1)
	be.F64(3)
	be.F64(1)
	bd := NewDecoder(bytes.NewReader(bad.Bytes()))
	bd.Entries()
	if bd.Err() == nil {
		t.Fatal("unsorted entries accepted")
	}
}

// TestIndexCodecAllKinds covers every index kind tag a stream can carry:
// the PAI map and the level tree round-trip byte-identically, the parent
// layout's two RPAI lane streams convert, and a stream of any other kind
// where one of them belongs — the btree, sorted and Fenwick tags the engine
// no longer builds, a single RPAI lane or a level tree where the PAI map
// belongs, a PAI map where a level tree or an RPAI lane belongs — is refused
// with an error naming the kind.
func TestIndexCodecAllKinds(t *testing.T) {
	m := paimap.New()
	lt := rpai.NewLevelTree()
	lane := rpai.New()
	for _, kv := range [][2]float64{{10, 3}, {4, 1}, {7.5, 2}, {-2, 5}} {
		m.Add(kv[0], kv[1])
		lt.Add(kv[0], 1, 1, kv[1])
		lane.Add(kv[0], kv[1])
	}
	encode := func(write func(*Encoder)) []byte {
		t.Helper()
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		write(e)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	paiBytes := encode(func(e *Encoder) { e.Index(m) })
	d := NewDecoder(bytes.NewReader(paiBytes))
	got := d.Index()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != m.Len() || got.Total() != m.Total() || got.GetSum(7.5) != m.GetSum(7.5) {
		t.Fatalf("pai: decoded Len/Total = %d/%g, want %d/%g", got.Len(), got.Total(), m.Len(), m.Total())
	}
	if re := encode(func(e *Encoder) { e.Index(got) }); !bytes.Equal(re, paiBytes) {
		t.Fatal("pai: re-encode is not byte-identical")
	}

	levelBytes := encode(func(e *Encoder) { e.Levels(lt) })
	d = NewDecoder(bytes.NewReader(levelBytes))
	gotLevels := d.Levels()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if re := encode(func(e *Encoder) { e.Levels(gotLevels) }); !bytes.Equal(re, levelBytes) {
		t.Fatal("levels: re-encode is not byte-identical")
	}

	// The parent layout: one RPAI stream per lane, zipped with the keys.
	var laneStream bytes.Buffer
	if err := lane.Encode(&laneStream); err != nil {
		t.Fatal(err)
	}
	rpaiBytes := encode(func(e *Encoder) {
		e.U8(idxRPAI)
		e.Bytes(laneStream.Bytes())
	})
	d = NewDecoder(bytes.NewReader(append(append([]byte{}, rpaiBytes...), rpaiBytes...)))
	if parent := d.ParentLevels([]float64{-20, 40, 75, 100}, []float64{1, 1, 1, 1}); d.Err() != nil || parent.Len() != 4 {
		t.Fatalf("parent lanes: %v", d.Err())
	}

	// The retired kinds wrote the same entry list as the PAI map under their
	// own tag.
	entries := paiBytes[1:]
	for _, tc := range []struct {
		name   string
		stream []byte
		read   func(*Decoder)
	}{
		{"btree", append([]byte{idxBTree}, entries...), func(d *Decoder) { d.Index() }},
		{"sorted", append([]byte{idxSorted}, entries...), func(d *Decoder) { d.Index() }},
		{"fenwick", append([]byte{idxFenwick}, entries...), func(d *Decoder) { d.Index() }},
		{"rpai", rpaiBytes, func(d *Decoder) { d.Index() }},
		{"levels", levelBytes, func(d *Decoder) { d.Index() }},
		{"pai", paiBytes, func(d *Decoder) { d.Levels() }},
		{"rpai", rpaiBytes, func(d *Decoder) { d.Levels() }},
		{"btree", append(append([]byte{idxBTree}, entries...), append([]byte{idxBTree}, entries...)...), func(d *Decoder) { d.ParentLevels(nil, nil) }},
		{"pai", append(paiBytes, paiBytes...), func(d *Decoder) { d.ParentLevels(nil, nil) }},
	} {
		d := NewDecoder(bytes.NewReader(tc.stream))
		tc.read(d)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.name+" index stream") {
			t.Fatalf("%s stream: decode error %v, want a refusal naming %q", tc.name, err, tc.name)
		}
	}
}
