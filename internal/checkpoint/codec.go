// Package checkpoint is the durability substrate for the incremental
// executors and the serving layer: a versioned, checksummed binary codec for
// executor state (level trees, PAI maps, entry lists, group maps), CRC-framed
// records, per-shard snapshot and write-ahead-log files with generation-based
// compaction, and a crash-point injection writer for the recovery tests.
//
// The paper's value proposition is that higher-order incremental state is
// expensive to rebuild; this package makes that state durable so a restart
// recovers it from a snapshot plus a short WAL suffix instead of a full
// replay (the stack benchmark's recover_s measures it).
//
// Every multi-byte integer is little-endian. Every on-disk structure is built
// from checksummed records:
//
//	record := uint32 payloadLen | uint32 crc32c(payload) | payload
//
// A reader that hits a short header, a short payload, or a checksum mismatch
// reports ErrCorrupt — a torn tail is always detected, never silently
// decoded. io.EOF is returned only at a clean record boundary.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var le = binary.LittleEndian

// Version is the checkpoint format version stamped into every snapshot and
// WAL header. Readers reject other versions.
const Version = 1

// MaxRecord bounds a single record payload (64 MiB). The cap exists so a
// corrupted length prefix cannot force a huge allocation before the checksum
// is verified.
const MaxRecord = 64 << 20

// ErrCorrupt reports a torn or corrupted record: a short header, a short
// payload, an oversized length prefix, or a checksum mismatch.
var ErrCorrupt = errors.New("checkpoint: torn or corrupt record")

// ErrCrash is the failure injected by CrashWriter once its byte budget is
// exhausted; tests use it to simulate a crash at an arbitrary write offset.
var ErrCrash = errors.New("checkpoint: injected crash")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteRecord frames payload as [len|crc32c|payload] and writes it to w.
func WriteRecord(w io.Writer, payload []byte) error {
	var hdr [8]byte
	le.PutUint32(hdr[0:4], uint32(len(payload)))
	le.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRecord reads one framed record from r. It returns io.EOF if the stream
// ends exactly at a record boundary and an error wrapping ErrCorrupt for a
// torn or corrupted record.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	n := le.Uint32(hdr[0:4])
	if n > MaxRecord {
		return nil, fmt.Errorf("%w: length %d exceeds limit", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	if crc32.Checksum(payload, castagnoli) != le.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// --- primitive codec ---

// Encoder writes the codec's primitive values to an io.Writer with a sticky
// error, so state encoders read as straight-line code and check Err once.
type Encoder struct {
	w   io.Writer
	err error
	b   [8]byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Err returns the first write error, if any.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) write(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) {
	e.b[0] = v
	e.write(e.b[:1])
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	le.PutUint32(e.b[:4], v)
	e.write(e.b[:4])
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	le.PutUint64(e.b[:8], v)
	e.write(e.b[:8])
}

// F64 writes the IEEE-754 bits of v, little-endian.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.write(p)
}

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.write([]byte(s))
}

// Decoder reads the codec's primitive values with a sticky error. Methods
// return the zero value once an error has occurred; check Err at the end.
// Length-prefixed reads are capped at MaxRecord so corrupt input cannot
// force unbounded allocation.
type Decoder struct {
	r   io.Reader
	err error
	b   [8]byte
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Err returns the first read error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records err (if the decoder has not already failed) and is used by
// higher-level decoders to report semantic corruption.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) read(p []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("checkpoint: truncated stream: %w", err)
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.read(d.b[:1]) {
		return 0
	}
	return d.b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.read(d.b[:4]) {
		return 0
	}
	return le.Uint32(d.b[:4])
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.read(d.b[:8]) {
		return 0
	}
	return le.Uint64(d.b[:8])
}

// F64 reads an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// FiniteF64 reads a float64 and fails the decoder if it is NaN or infinite;
// tree and map keys must be finite, so a non-finite key is corruption.
func (d *Decoder) FiniteF64() float64 {
	v := d.F64()
	if d.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		d.Fail(errors.New("checkpoint: non-finite key"))
		return 0
	}
	return v
}

// Bytes reads a length-prefixed byte slice.
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxRecord {
		d.Fail(fmt.Errorf("checkpoint: byte length %d exceeds limit", n))
		return nil
	}
	p := make([]byte, n)
	if !d.read(p) {
		return nil
	}
	return p
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// --- crash injection ---

// CrashWriter is the crash-point injection layer of the recovery tests: an
// io.Writer that accepts exactly Limit bytes and then fails every write with
// ErrCrash, truncating mid-write like a process killed during an fsync-less
// file append. Bytes returns what "reached disk".
type CrashWriter struct {
	limit   int
	buf     bytes.Buffer
	crashed bool
}

// NewCrashWriter returns a CrashWriter that accepts limit bytes.
func NewCrashWriter(limit int) *CrashWriter { return &CrashWriter{limit: limit} }

// Write implements io.Writer, truncating at the byte budget.
func (w *CrashWriter) Write(p []byte) (int, error) {
	if w.crashed {
		return 0, ErrCrash
	}
	remain := w.limit - w.buf.Len()
	if remain >= len(p) {
		w.buf.Write(p)
		return len(p), nil
	}
	if remain > 0 {
		w.buf.Write(p[:remain])
	} else {
		remain = 0
	}
	w.crashed = true
	return remain, ErrCrash
}

// Crashed reports whether the injected failure has fired.
func (w *CrashWriter) Crashed() bool { return w.crashed }

// Bytes returns the prefix that was durably "written" before the crash.
func (w *CrashWriter) Bytes() []byte { return w.buf.Bytes() }
