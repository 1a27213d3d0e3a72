package checkpoint

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// On-disk layout of a checkpoint directory (one generation G, S shards):
//
//	MANIFEST                 current generation + shard count (tmp+rename)
//	g<G>-shard-<i>.snap      snapshot of shard i's partitions at sequence Q
//	g<G>-shard-<i>.wal       events applied after sequence Q (may be absent)
//
// A snapshot file is magic "RPSN" followed by CRC-framed records: a header,
// one record per partition, and a trailer whose presence marks the file
// complete (a crash mid-write leaves no trailer and the file is rejected). A
// WAL file is magic "RPWL", a header record, then one record per event; a
// torn tail is expected after a crash and reading stops at the first bad
// record. Snapshot and WAL are tied by the Seq header field: the WAL with
// Seq Q holds exactly the events applied after the snapshot with Seq Q, so
// recovery is decode(snapshot) + replay(WAL) with no double-application.
//
// Writers rotate within a generation by rewriting the same paths
// (tmp+rename for snapshots, truncate for the WAL); a shard-count change or
// recovery starts generation G+1, and the MANIFEST is swapped only after
// every shard of G+1 is durable, after which generation G's files are
// removed. Recovery scans for the highest generation whose files are all
// complete and mutually consistent, so a crash at any point falls back to
// the previous durable generation.

const (
	snapMagic     = "RPSN"
	walMagic      = "RPWL"
	manifestMagic = "RPMF"

	// ManifestName is the checkpoint directory's current-generation pointer.
	ManifestName = "MANIFEST"

	// SnapSuffix and WALSuffix name the per-shard file kinds.
	SnapSuffix = ".snap"
	WALSuffix  = ".wal"
)

// Header identifies one shard's snapshot or WAL file.
type Header struct {
	Gen        uint64 // checkpoint generation the file belongs to
	Seq        uint64 // snapshot sequence; a WAL with Seq q follows snapshot q
	Shard      uint32 // shard index within the generation
	ShardCount uint32 // shard count of the generation (consistency check)
}

func (e *Encoder) header(h Header) {
	e.U32(Version)
	e.U64(h.Gen)
	e.U64(h.Seq)
	e.U32(h.Shard)
	e.U32(h.ShardCount)
}

func decodeHeader(payload []byte) (Header, error) {
	d := NewDecoder(bytes.NewReader(payload))
	if v := d.U32(); d.Err() == nil && v != Version {
		return Header{}, fmt.Errorf("checkpoint: unsupported format version %d", v)
	}
	h := Header{Gen: d.U64(), Seq: d.U64(), Shard: d.U32(), ShardCount: d.U32()}
	if d.Err() != nil {
		return Header{}, d.Err()
	}
	if h.ShardCount == 0 || h.Shard >= h.ShardCount {
		return Header{}, fmt.Errorf("checkpoint: invalid header shard %d/%d", h.Shard, h.ShardCount)
	}
	return h, nil
}

func headerRecord(h Header) ([]byte, error) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.header(h)
	if err := e.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SnapPath returns the snapshot path for a generation's shard.
func SnapPath(dir string, gen uint64, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("g%d-shard-%d%s", gen, shard, SnapSuffix))
}

// WALPath returns the WAL path for a generation's shard.
func WALPath(dir string, gen uint64, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("g%d-shard-%d%s", gen, shard, WALSuffix))
}

// --- snapshot files ---

// Partition is one partition inside a shard snapshot: its key columns plus
// the opaque executor state produced by the engine's Snapshotter.
type Partition struct {
	Key   []float64
	State []byte
}

// trailer payload: marks a snapshot stream complete.
func trailerRecord(h Header) []byte {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Str("END")
	e.U64(h.Seq)
	return buf.Bytes()
}

// SnapshotWriter streams one shard's snapshot to an io.Writer:
// NewSnapshotWriter writes the magic and the header record, each Partition
// call one partition record, and Close the trailer that marks the stream
// complete. A partition's record is encoded into one buffer the writer
// reuses — its frame, its key and the state its caller writes in place — and
// handed to w in one Write, so a snapshot costs its encoded bytes, not a
// copy of every partition's state. Errors are sticky: after a failed write
// every call returns the first error.
type SnapshotWriter struct {
	w   io.Writer
	h   Header
	buf bytes.Buffer
	enc Encoder
	err error
}

// recordHdr is a record frame's length: payload length and checksum.
const recordHdr = 8

// NewSnapshotWriter starts h's snapshot stream on w; a failed write is
// reported by the first call that follows.
func NewSnapshotWriter(w io.Writer, h Header) *SnapshotWriter {
	sw := &SnapshotWriter{w: w, h: h}
	sw.enc.w = &sw.buf
	if _, sw.err = io.WriteString(w, snapMagic); sw.err == nil {
		sw.begin()
		sw.enc.header(h)
		sw.end()
	}
	return sw
}

// begin starts a record in the buffer, its frame left blank for end.
func (sw *SnapshotWriter) begin() {
	var frame [recordHdr]byte
	sw.buf.Reset()
	sw.buf.Write(frame[:])
}

// end fills in the buffered record's frame and writes the record to w.
func (sw *SnapshotWriter) end() {
	b := sw.buf.Bytes()
	payload := b[recordHdr:]
	le.PutUint32(b[0:4], uint32(len(payload)))
	le.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	_, sw.err = sw.w.Write(b)
}

// Partition writes one partition's record: its key columns, then the
// executor state that state writes (an engine.Snapshotter's Snapshot), in
// place, length-prefixed.
func (sw *SnapshotWriter) Partition(key []float64, state func(io.Writer) error) error {
	if sw.err != nil {
		return sw.err
	}
	sw.begin()
	e := &sw.enc
	e.U32(uint32(len(key)))
	for _, v := range key {
		e.F64(v)
	}
	e.U32(0) // the state's length, known once it is written
	at := sw.buf.Len()
	if sw.err = state(&sw.buf); sw.err != nil {
		return sw.err
	}
	b := sw.buf.Bytes()
	le.PutUint32(b[at-4:at], uint32(len(b)-at))
	sw.end()
	return sw.err
}

// Close writes the trailer that marks the stream complete. It does not
// close w.
func (sw *SnapshotWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	sw.begin()
	sw.buf.Write(trailerRecord(sw.h))
	sw.end()
	return sw.err
}

// ReadSnapshot decodes a snapshot stream, verifying magic, version, per-
// record checksums and the completeness trailer.
func ReadSnapshot(r io.Reader) (Header, []Partition, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return Header{}, nil, fmt.Errorf("%w: short snapshot magic: %v", ErrCorrupt, err)
	}
	if string(magic) != snapMagic {
		return Header{}, nil, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, magic)
	}
	hp, err := ReadRecord(br)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: missing snapshot header", ErrCorrupt)
		}
		return Header{}, nil, err
	}
	h, err := decodeHeader(hp)
	if err != nil {
		return Header{}, nil, err
	}
	var parts []Partition
	want := trailerRecord(h)
	for {
		payload, err := ReadRecord(br)
		if err != nil {
			if err == io.EOF {
				return Header{}, nil, fmt.Errorf("%w: snapshot missing trailer", ErrCorrupt)
			}
			return Header{}, nil, err
		}
		if bytes.Equal(payload, want) {
			if _, err := ReadRecord(br); err != io.EOF {
				return Header{}, nil, fmt.Errorf("%w: data after snapshot trailer", ErrCorrupt)
			}
			return h, parts, nil
		}
		d := NewDecoder(bytes.NewReader(payload))
		nk := d.U32()
		if d.Err() == nil && nk > 64 {
			return Header{}, nil, fmt.Errorf("%w: partition key width %d", ErrCorrupt, nk)
		}
		key := make([]float64, nk)
		for i := range key {
			key[i] = d.F64()
		}
		state := d.Bytes()
		if d.Err() != nil {
			return Header{}, nil, fmt.Errorf("%w: partition record: %v", ErrCorrupt, d.Err())
		}
		parts = append(parts, Partition{Key: key, State: state})
	}
}

// WriteFileAtomic writes path through write, atomically: into a temp file
// in the same directory behind a buffer, flushed and synced, then renamed
// over path. A reader sees the old file or the complete new one.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadSnapshotFile reads and verifies one shard snapshot.
func ReadSnapshotFile(path string) (Header, []Partition, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// --- WAL files ---

// WALWriter appends length-prefixed, checksummed event records to a shard's
// write-ahead log. Append buffers; Flush pushes the buffer to the OS (the
// serving layer flushes when a shard goes idle and before acknowledging a
// Drain barrier). Durability is against process crashes; Sync additionally
// forces the file to stable storage.
type WALWriter struct {
	f  *os.File
	bw *bufio.Writer
}

// walBufSize is the writer's in-process buffer. The serving layer group-
// commits across batches under sustained load, so the buffer is sized to
// hold many batch records between flushes instead of bufio's 4 KiB default
// (which would force a write syscall nearly every batch anyway).
const walBufSize = 64 << 10

// CreateWAL creates (or truncates) the WAL at path and writes its header.
func CreateWAL(path string, h Header) (*WALWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &WALWriter{f: f, bw: bufio.NewWriterSize(f, walBufSize)}
	hr, err := headerRecord(h)
	if err == nil {
		_, err = io.WriteString(w.bw, walMagic)
	}
	if err == nil {
		err = WriteRecord(w.bw, hr)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// Append buffers one event record.
func (w *WALWriter) Append(payload []byte) error { return WriteRecord(w.bw, payload) }

// Flush pushes buffered records to the OS.
func (w *WALWriter) Flush() error { return w.bw.Flush() }

// Sync flushes and forces the log to stable storage.
func (w *WALWriter) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the log file.
func (w *WALWriter) Close() error {
	if err := w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReadWAL replays a shard WAL: it verifies the magic and header, calls fn
// for every intact event record in order, and stops at the first torn or
// corrupt record — the expected shape of a crashed log's tail. It returns
// the header and the number of events delivered. A missing or torn header
// is an error (the file tells us nothing); a torn tail is not.
func ReadWAL(path string, fn func(payload []byte) error) (Header, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return Header{}, 0, fmt.Errorf("%w: short WAL magic: %v", ErrCorrupt, err)
	}
	if string(magic) != walMagic {
		return Header{}, 0, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, magic)
	}
	hp, err := ReadRecord(br)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: missing WAL header", ErrCorrupt)
		}
		return Header{}, 0, err
	}
	h, err := decodeHeader(hp)
	if err != nil {
		return Header{}, 0, err
	}
	n := 0
	for {
		payload, err := ReadRecord(br)
		if err != nil {
			// io.EOF is a clean end; ErrCorrupt here is a torn tail, which
			// recovery tolerates by construction.
			return h, n, nil
		}
		if err := fn(payload); err != nil {
			return h, n, err
		}
		n++
	}
}

// --- manifest ---

// Manifest is the checkpoint directory's current-generation pointer.
type Manifest struct {
	Gen    uint64
	Shards uint32
}

// WriteManifest atomically swaps the directory's MANIFEST.
func WriteManifest(dir string, m Manifest) error {
	var rec bytes.Buffer
	re := NewEncoder(&rec)
	re.U32(Version)
	re.U64(m.Gen)
	re.U32(m.Shards)
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		if _, err := io.WriteString(w, manifestMagic); err != nil {
			return err
		}
		return WriteRecord(w, rec.Bytes())
	})
}

// ReadManifest reads the directory's MANIFEST. A missing file returns an
// error satisfying errors.Is(err, os.ErrNotExist).
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	if len(b) < len(manifestMagic) || string(b[:len(manifestMagic)]) != manifestMagic {
		return Manifest{}, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	payload, err := ReadRecord(bytes.NewReader(b[len(manifestMagic):]))
	if err != nil {
		return Manifest{}, err
	}
	d := NewDecoder(bytes.NewReader(payload))
	if v := d.U32(); d.Err() == nil && v != Version {
		return Manifest{}, fmt.Errorf("checkpoint: unsupported manifest version %d", v)
	}
	m := Manifest{Gen: d.U64(), Shards: d.U32()}
	if d.Err() != nil {
		return Manifest{}, d.Err()
	}
	if m.Shards == 0 {
		return Manifest{}, errors.New("checkpoint: manifest shard count is zero")
	}
	return m, nil
}
