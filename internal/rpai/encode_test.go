package rpai

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Add(float64(rng.Intn(10000)), float64(rng.Intn(100)-50))
		if i%5 == 0 {
			tr.ShiftKeys(float64(rng.Intn(10000)), float64(rng.Intn(20)+1))
		}
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Total() != tr.Total() {
		t.Fatalf("Len/Total mismatch: %d/%v vs %d/%v", got.Len(), got.Total(), tr.Len(), tr.Total())
	}
	if !equalFloats(got.Keys(), tr.Keys()) {
		t.Fatal("keys diverge after round trip")
	}
	tr.Ascend(func(k, v float64) bool {
		if gv, ok := got.Get(k); !ok || gv != v {
			t.Fatalf("value mismatch at %v: %v vs %v", k, gv, v)
		}
		return true
	})
	// The restored tree must remain fully operational.
	got.ShiftKeys(100, -7)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Put(float64(i), 1)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	truncated := append([]byte(nil), good[:len(good)/2]...)
	if _, err := Decode(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Corrupt the node-count header: the count cross-check must catch it.
	corrupt := append([]byte(nil), good...)
	corrupt[8] ^= 0xff
	if _, err := Decode(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted count header accepted")
	}
	// Corrupt a child-presence flag byte of the root node: the stream either
	// truncates or decodes to a structurally invalid tree.
	corrupt = append([]byte(nil), good...)
	corrupt[12] ^= flagLeft | flagRight
	if _, err := Decode(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted flag byte accepted")
	}
}

// goldenOps is the fixed Add/Put/Delete/ShiftKeys sequence behind
// testdata/golden.rpai.
func goldenOps(t *Tree) {
	for i := 0; i < 600; i++ {
		t.Add(0.5*float64(i*37%211), 0.1*float64(i%13)-0.4)
		if i%5 == 0 {
			t.Put(0.5*float64(i*11%97), 0.3*float64(i%7))
		}
		if i%7 == 0 {
			t.Delete(0.5 * float64(i*53%211))
		}
		if i%9 == 0 {
			t.ShiftKeys(0.5*float64(i*17%211), 0.5*float64(i%11)-2.5)
		}
		if i%13 == 0 {
			t.ShiftKeysInclusive(0.5*float64(i*29%211), 0.5*float64(i%5)-1.5)
		}
	}
}

// TestDecodeGoldenSnapshot pins the snapshot format. testdata/golden.rpai
// was written by an earlier, pointer-based implementation of Tree after
// goldenOps; checkpoints and examples/checkpoint carry streams like it. It
// must decode, re-encode to the same bytes, and equal what goldenOps builds
// today — the same relative keys, colours and shape, so the balancing
// decisions and the float arithmetic have not drifted.
func TestDecodeGoldenSnapshot(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.rpai"))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := restored.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), golden) {
		t.Fatal("the restored golden snapshot re-encodes to different bytes")
	}
	built := New()
	goldenOps(built)
	var now bytes.Buffer
	if err := built.Encode(&now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now.Bytes(), golden) {
		t.Fatalf("goldenOps builds a tree that encodes to %d bytes differing from the golden %d", now.Len(), len(golden))
	}
	// The restored tree stays fully operational.
	restored.ShiftKeys(20, -7)
	restored.Add(42, 1)
	restored.Delete(17)
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
}
