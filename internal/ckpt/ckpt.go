// Package ckpt is the persistent checkpoint container and state-walk
// layer (DESIGN.md §5e): a versioned, checksummed on-disk format, the
// Encoder/Decoder primitives, and the Walker every subsystem's single
// state method is written against — one field list per type from which
// fork-clone, encode and decode are all derived (walk.go).
//
// The container is deliberately dumb. A file is
//
//	magic[8] version[u32] endian[u8] keyLen[u32] key[keyLen]
//	payload[...]
//	payloadLen[u64] crc32c[u32]
//
// where the payload is whatever the encode callback wrote, the trailer
// records its exact length and CRC-32C, and the key is the full
// identity of the staged state (a campaign's cell key). Load verifies
// magic, version, endianness, key, length, and checksum before a
// single payload byte reaches a Decoder, so subsystem decoders only
// ever face complete, bit-exact images; their own validation exists to
// reject images that are internally inconsistent (a hostile or
// version-skewed writer), never to patch up torn reads.
//
// Scalars are little-endian; bulk slices are raw host memory (that is
// what makes save/load near-memcpy). The endian marker byte rejects
// cross-endian loads instead of translating them: a checkpoint is a
// cache entry keyed by its staging identity, not an interchange format,
// and a mismatch simply falls back to fresh staging.
//
// Determinism contract (MODEL.md §7): encoding must be a pure function
// of simulation state — iterate maps in sorted key order, never encode
// pointers, scratch buffers, or host addresses — so that identical
// keys produce byte-identical images and a loaded image forks into
// machines byte-identical to freshly staged ones.
package ckpt

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"
)

// Version is the container format version. Any change to any
// subsystem's state walk must bump it: Load rejects other versions,
// which is what invalidates every stale store entry at once (content
// addressing handles spec changes; the version handles format
// changes).
const Version = 4

var magic = [8]byte{'G', 'M', 'C', 'K', 'P', 'T', '0', '\n'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64 and
// arm64, which matters at multi-GB image sizes).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostEndian is 0 on little-endian hosts, 1 on big-endian ones.
var hostEndian = func() byte {
	x := uint16(1)
	if *(*byte)(unsafe.Pointer(&x)) == 1 {
		return 0
	}
	return 1
}()

// maxKeyLen bounds the key field so a corrupt header cannot demand an
// absurd allocation before the checksum is ever consulted.
const maxKeyLen = 64 << 10

// Path returns the store path for a checkpoint key: the hex SHA-256 of
// the key under dir. Content addressing by hash keeps arbitrarily long
// keys (they spell out the whole spec) out of filenames while
// keeping the mapping collision-free in practice.
func Path(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".ckpt")
}

// Save writes a complete container to w: header, the payload produced
// by encode, and the length+CRC trailer. It returns the total bytes
// written. Any Encoder error (I/O or a walk's Failf) aborts the save.
func Save(w io.Writer, key string, encode func(*Encoder)) (int64, error) {
	if len(key) > maxKeyLen {
		return 0, fmt.Errorf("ckpt: key is %d bytes, limit %d", len(key), maxKeyLen)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr bytes.Buffer
	hdr.Write(magic[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], Version)
	hdr.Write(u32[:])
	hdr.WriteByte(hostEndian)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	hdr.Write(u32[:])
	hdr.WriteString(key)
	if _, err := bw.Write(hdr.Bytes()); err != nil {
		return 0, err
	}
	e := &Encoder{w: bw, crc: crc32.New(castagnoli)}
	encode(e)
	if e.err != nil {
		return 0, e.err
	}
	var tr [12]byte
	binary.LittleEndian.PutUint64(tr[:8], e.n)
	binary.LittleEndian.PutUint32(tr[8:], e.crc.Sum32())
	if _, err := bw.Write(tr[:]); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(hdr.Len()) + int64(e.n) + int64(len(tr)), nil
}

// Size returns the payload bytes the encode walk writes, with no CRC
// and nothing stored: what Save would write for that state between the
// header and the trailer. A walk that fails (state that cannot be
// serialized) returns the error.
func Size(walk func(*Walker)) (uint64, error) {
	e := &Encoder{w: io.Discard}
	walk(e.Walker())
	return e.n, e.err
}

// Load reads a complete container from r, verifies magic, version,
// endianness, key, payload length, and CRC, and returns a Decoder
// positioned at the start of the payload. Nothing is decoded until
// every integrity check has passed; any failure returns an error and
// no Decoder.
func Load(r io.Reader, wantKey string) (*Decoder, error) {
	var fixed [17]byte // magic + version + endian + keyLen
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("ckpt: short header: %w", err)
	}
	if !bytes.Equal(fixed[:8], magic[:]) {
		return nil, fmt.Errorf("ckpt: bad magic %q", fixed[:8])
	}
	if v := binary.LittleEndian.Uint32(fixed[8:12]); v != Version {
		return nil, fmt.Errorf("ckpt: format version %d, want %d", v, Version)
	}
	if fixed[12] != hostEndian {
		return nil, fmt.Errorf("ckpt: image written on a different-endian host")
	}
	keyLen := binary.LittleEndian.Uint32(fixed[13:17])
	if keyLen > maxKeyLen {
		return nil, fmt.Errorf("ckpt: key length %d exceeds limit %d", keyLen, maxKeyLen)
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("ckpt: short key: %w", err)
	}
	if string(key) != wantKey {
		return nil, fmt.Errorf("ckpt: image key %q does not match %q", key, wantKey)
	}
	rest, err := readRest(r)
	if err != nil {
		return nil, err
	}
	if len(rest) < 12 {
		return nil, fmt.Errorf("ckpt: truncated trailer (%d bytes after key)", len(rest))
	}
	payload := rest[:len(rest)-12]
	wantLen := binary.LittleEndian.Uint64(rest[len(rest)-12:])
	wantCRC := binary.LittleEndian.Uint32(rest[len(rest)-4:])
	if wantLen != uint64(len(payload)) {
		return nil, fmt.Errorf("ckpt: payload is %d bytes, trailer says %d", len(payload), wantLen)
	}
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("ckpt: payload CRC %08x, trailer says %08x", got, wantCRC)
	}
	return &Decoder{buf: payload}, nil
}

// readRest reads everything after the header. A regular file is read
// with one ReadFull into a buffer of exactly the bytes left: a loaded
// node adopts this buffer (Pages decode) and keeps it alive, and a
// presized bytes.Buffer doubles whenever its allocation leaves less
// than bytes.MinRead of slack for the final read. Other readers drain
// through a bytes.Buffer.
func readRest(r io.Reader) ([]byte, error) {
	if f, ok := r.(*os.File); ok {
		fi, serr := f.Stat()
		pos, perr := f.Seek(0, io.SeekCurrent)
		if serr == nil && perr == nil && fi.Mode().IsRegular() && pos <= fi.Size() {
			buf := make([]byte, fi.Size()-pos)
			if _, err := io.ReadFull(f, buf); err != nil {
				return nil, fmt.Errorf("ckpt: reading payload: %w", err)
			}
			return buf, nil
		}
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("ckpt: reading payload: %w", err)
	}
	return buf.Bytes(), nil
}

// Encoder serializes simulation state into a container payload. All
// methods are no-ops after the first error (I/O failure or Failf), so
// walks can encode straight through and let Save report the sticky
// error once.
type Encoder struct {
	w   io.Writer
	crc hash.Hash32 // nil when only counting (Size)
	n   uint64
	err error
}

// Err returns the sticky error, if any.
func (e *Encoder) Err() error { return e.err }

// Failf records a walk-level error (state that must not be
// serialized, like a live ticker), aborting the save.
func (e *Encoder) Failf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (e *Encoder) write(b []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return
	}
	if e.crc != nil {
		e.crc.Write(b)
	}
	e.n += uint64(len(b))
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.write([]byte{v}) }

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.write(b[:])
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.write(b[:])
}

// Int writes a signed int as its 64-bit two's complement.
func (e *Encoder) Int(v int) { e.U64(uint64(int64(v))) }

// Bool writes a bool as one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.write([]byte(s))
}

// Raw writes b with no length prefix: the peer Decoder must know the
// exact size (a fixed array via View, or a slice whose length was
// encoded separately).
func (e *Encoder) Raw(b []byte) { e.write(b) }

// Decoder reads a verified container payload back. All reads are
// bounds-checked against the payload and all methods are no-ops
// (returning zero values) after the first error, so a corrupt or
// hostile image can never panic a walk or index past the buffer —
// the fuzzer in internal/core holds this to account. A Decoder owns its
// payload: only Load builds one, from a fresh read, and Pages adopts the
// payload's bytes as the pages of the arrays it decodes.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Err returns the sticky error, if any.
func (d *Decoder) Err() error { return d.err }

// Failf records a walk-level validation error (an image whose decoded
// state is internally inconsistent), aborting the load.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: offset %d: "+format, append([]any{d.off}, args...)...)
	}
}

// Remaining reports how many payload bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish errors unless the payload was consumed exactly: leftover
// bytes mean the image and the state walks disagree about the format.
func (d *Decoder) Finish() error {
	if d.err == nil && d.Remaining() != 0 {
		d.Failf("%d trailing bytes after decode", d.Remaining())
	}
	return d.err
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Failf("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a signed int written by Encoder.Int.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// Bool reads a bool, rejecting any encoding other than 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("bool byte is neither 0 nor 1")
		return false
	}
}

// Len reads a length and rejects values above max, so a corrupt
// length field can never force an allocation larger than the payload
// that claims to contain the data.
func (d *Decoder) Len(max int) int {
	v := d.U64()
	if d.err != nil {
		return 0
	}
	if max < 0 {
		max = 0
	}
	if v > uint64(max) {
		d.Failf("length %d exceeds bound %d", v, max)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len(d.Remaining())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Raw fills dst exactly; the peer of Encoder.Raw.
func (d *Decoder) Raw(dst []byte) {
	b := d.take(len(dst))
	if b == nil {
		return
	}
	copy(dst, b)
}

// view returns the raw bytes of *p without a copy. T must contain no
// pointers and no compiler-inserted padding.
func view[T any](p *T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(p)), unsafe.Sizeof(*p))
}

// sliceView returns the raw bytes backing s (nil when s is empty), under
// view's contract.
func sliceView[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), uintptr(len(s))*unsafe.Sizeof(s[0]))
}

// encodeSlice writes a length-prefixed slice of pointer-free scalars
// as raw host memory — the near-memcpy path for the big flat arrays
// (frame metadata, page tables, free bitmaps).
func encodeSlice[T any](e *Encoder, s []T) {
	e.U64(uint64(len(s)))
	e.Raw(sliceView(s))
}

// decodeSlice reads a slice written by encodeSlice, bounding the length
// by the bytes actually remaining before allocating.
func decodeSlice[T any](d *Decoder) []T {
	esz := int(unsafe.Sizeof(*new(T)))
	n := d.Len(d.Remaining() / esz)
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]T, n)
	d.Raw(sliceView(s))
	return s
}
