package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeSample writes one of every primitive the codec offers.
func encodeSample(e *Encoder) {
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.String("graphmem")
	e.Raw([]byte{1, 2, 3})
	encodeSlice(e, []uint64{5, 6, 7})
	encodeSlice(e, []uint32(nil))
}

func decodeSample(t *testing.T, d *Decoder) {
	t.Helper()
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<40 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair mismatch")
	}
	if v := d.String(); v != "graphmem" {
		t.Errorf("String = %q", v)
	}
	var raw [3]byte
	d.Raw(raw[:])
	if raw != [3]byte{1, 2, 3} {
		t.Errorf("Raw = %v", raw)
	}
	if s := decodeSlice[uint64](d); len(s) != 3 || s[0] != 5 || s[2] != 7 {
		t.Errorf("decodeSlice = %v", s)
	}
	if s := decodeSlice[uint32](d); s != nil {
		t.Errorf("empty decodeSlice = %v", s)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func saveSample(t *testing.T, key string) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := Save(&buf, key, encodeSample)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestFileLoadBufferIsExact loads, from a file, a container whose tail
// (payload plus 12-byte trailer) is exactly 8 MiB. The Decoder adopts
// the read buffer, so the buffer must carry no slack; a bytes.Buffer
// presized to the tail would double before its final read.
func TestFileLoadBufferIsExact(t *testing.T) {
	const tail = 8 << 20
	path := filepath.Join(t.TempDir(), "tail.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Save(f, "cell-key", func(e *Encoder) { e.Raw(make([]byte, tail-12)) })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := Load(f, "cell-key")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// d.buf is the read buffer with the trailer sliced off.
	if got, want := cap(d.buf), len(d.buf)+12; got != want {
		t.Errorf("read buffer holds %d bytes with capacity %d, want capacity = length", want, got)
	}
}

func TestRoundTrip(t *testing.T) {
	img := saveSample(t, "cell-key")
	d, err := Load(bytes.NewReader(img), "cell-key")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	decodeSample(t, d)
}

func TestSaveIsDeterministic(t *testing.T) {
	if !bytes.Equal(saveSample(t, "k"), saveSample(t, "k")) {
		t.Fatal("two saves of identical state differ")
	}
}

func TestKeyMismatch(t *testing.T) {
	img := saveSample(t, "cell-key")
	if _, err := Load(bytes.NewReader(img), "other-key"); err == nil {
		t.Fatal("Load accepted a mismatched key")
	}
}

// TestEveryTruncationErrors cuts the image at every possible length:
// no prefix may load.
func TestEveryTruncationErrors(t *testing.T) {
	img := saveSample(t, "k")
	for n := 0; n < len(img); n++ {
		if _, err := Load(bytes.NewReader(img[:n]), "k"); err == nil {
			t.Fatalf("Load accepted a %d/%d-byte truncation", n, len(img))
		}
	}
}

// TestEveryBitFlipErrors flips each bit of the image in turn: header
// fields are validated, the payload is checksummed, and the trailer
// must agree with both, so every single-bit corruption must be caught.
func TestEveryBitFlipErrors(t *testing.T) {
	img := saveSample(t, "k")
	for i := range img {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(img)
			mut[i] ^= 1 << bit
			if _, err := Load(bytes.NewReader(mut), "k"); err == nil {
				t.Fatalf("Load accepted a flip of byte %d bit %d", i, bit)
			}
		}
	}
}

func TestDecoderBoundsAndValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Save(&buf, "k", func(e *Encoder) {
		e.U8(2)        // invalid bool
		e.U64(1 << 50) // absurd length
	}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	d, err := Load(bytes.NewReader(buf.Bytes()), "k")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	d.Bool()
	if d.Err() == nil {
		t.Fatal("Bool accepted byte 2")
	}

	d, _ = Load(bytes.NewReader(buf.Bytes()), "k")
	d.U8()
	if n := d.Len(4); n != 0 || d.Err() == nil {
		t.Fatalf("Len returned %d for an over-bound length (err %v)", n, d.Err())
	}
	// After the sticky error, everything is a zero-value no-op.
	if v := d.U64(); v != 0 {
		t.Fatalf("post-error U64 = %d", v)
	}
	if s := decodeSlice[uint64](d); s != nil {
		t.Fatalf("post-error DecodeSlice = %v", s)
	}
}

func TestEncoderFailf(t *testing.T) {
	var buf bytes.Buffer
	_, err := Save(&buf, "k", func(e *Encoder) {
		e.U64(1)
		e.Failf("live ticker %q", "churn")
		e.U64(2) // must be a no-op
	})
	if err == nil || !strings.Contains(err.Error(), "live ticker") {
		t.Fatalf("Save error = %v", err)
	}
}
