package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/check"
	"graphmem/internal/ckpt"
	"graphmem/internal/core"
	"graphmem/internal/stats"
)

// persistSpec is the persistence tests' configuration: the stressed
// environment (memhog pin runs and a resident page cache must ride
// through the external-owner codecs) with simulated page tables (the
// radix tree and PT-frame accounting must survive the trip).
func persistSpec(t *testing.T, pol core.Policy) core.RunSpec {
	t.Helper()
	spec := quickSpec(t, analytics.BFS, pol, stressedEnv())
	spec.SimulatePageTables = true
	return spec
}

// TestSaveLoadForkMatchesFresh is the persistence fidelity property
// test: for each standard configuration, a checkpoint written to a
// buffer and loaded back in must produce RunResults deeply equal to the
// resident checkpoint's — every cycle count, fault counter, array
// statistic, and kernel output bit — and Save must be byte-
// deterministic, so one staging always saves to one image. The
// encoder-level checks see state a kernel phase happens not to read:
// the loaded checkpoint must re-Save to the same bytes, and a fresh
// fork of the frozen pair must encode exactly like the pair itself.
func TestSaveLoadForkMatchesFresh(t *testing.T) {
	for _, pol := range snapshotConfigs() {
		t.Run(pol.Name, func(t *testing.T) {
			spec := persistSpec(t, pol)
			key := "persist:" + pol.Name
			cp, err := core.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf, buf2 bytes.Buffer
			n, err := cp.Save(&buf, key)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
			}
			if _, err := cp.Save(&buf2, key); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("two Saves of one checkpoint produced different bytes")
			}
			var forked bytes.Buffer
			if _, err := cp.SaveFork(&forked, key); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), forked.Bytes()) {
				t.Fatal("a fork of the checkpoint encodes differently from the checkpoint")
			}
			ref, err := cp.Run()
			if err != nil {
				t.Fatal(err)
			}
			lcp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var resaved bytes.Buffer
			if _, err := lcp.Save(&resaved, key); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), resaved.Bytes()) {
				t.Fatal("Save of a loaded checkpoint differs from the image it was loaded from")
			}
			for i := 0; i < 2; i++ {
				got, err := lcp.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("loaded fork run %d diverged from fresh checkpoint:\n--- fresh ---\n%s--- loaded ---\n%s",
						i, formatResult(ref), formatResult(got))
				}
			}
		})
	}
}

// savedImage builds one saved checkpoint container (and its spec/key)
// once for the corruption tests and the fuzzer.
var savedImage struct {
	once sync.Once
	spec core.RunSpec
	key  string
	data []byte
	err  error
}

func savedCheckpoint(t testing.TB) (core.RunSpec, string, []byte) {
	t.Helper()
	savedImage.once.Do(func() {
		savedImage.spec = quickSpec(t, analytics.BFS, core.THPAlways(), stressedEnv())
		savedImage.spec.SimulatePageTables = true
		savedImage.key = "persist:corruption"
		cp, err := core.Prepare(savedImage.spec)
		if err != nil {
			savedImage.err = err
			return
		}
		var buf bytes.Buffer
		if _, err := cp.Save(&buf, savedImage.key); err != nil {
			savedImage.err = err
			return
		}
		savedImage.data = buf.Bytes()
	})
	if savedImage.err != nil {
		t.Fatal(savedImage.err)
	}
	return savedImage.spec, savedImage.key, savedImage.data
}

// mustReject asserts LoadCheckpoint refuses a corrupted image: an
// error, no half-initialized checkpoint, and no panic (the deferred
// recover converts one into a test failure with context).
func mustReject(t *testing.T, spec core.RunSpec, key string, img []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("LoadCheckpoint panicked on %s: %v", what, r)
		}
	}()
	cp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(img))
	if err == nil {
		t.Fatalf("LoadCheckpoint accepted %s", what)
	}
	if cp != nil {
		t.Fatalf("LoadCheckpoint returned a checkpoint alongside the %s error", what)
	}
}

// TestLoadCheckpointRejectsCorruption truncates and bit-flips a real
// saved image at positions spread over the whole container — the
// header, key, payload, and trailer all see hits — and requires every
// variant to be rejected errors-only.
func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	spec, key, img := savedCheckpoint(t)
	stride := len(img)/257 + 1
	for off := 0; off < len(img); off += stride {
		mustReject(t, spec, key, img[:off], "a truncated image")
		flipped := append([]byte(nil), img...)
		flipped[off] ^= 1 << (off % 8)
		mustReject(t, spec, key, flipped, "a bit-flipped image")
	}
	mustReject(t, spec, key, nil, "an empty image")
	if _, err := core.LoadCheckpoint(spec, "persist:other", bytes.NewReader(img)); err == nil {
		t.Fatal("LoadCheckpoint accepted an image saved under a different key")
	}
}

// FuzzLoadCheckpoint drives arbitrary bytes through the whole decode
// stack. Raw container mutations mostly die at the CRC, so the fuzz
// input is treated as the PAYLOAD and wrapped in a valid container
// (correct magic, key, length, checksum) — every mutation then reaches
// the per-subsystem validation, which must error, never panic, never
// hand back a half-initialized checkpoint. A mutation validation
// accepts is legitimate state (plain counters have no invalid values),
// so the oracle is the single walk's round trip: an accepted payload
// must re-Save to exactly the bytes it was loaded from, and must run
// its kernel phase without panicking.
func FuzzLoadCheckpoint(f *testing.F) {
	spec, key, img := savedCheckpoint(f)
	// Container layout (ckpt package doc): 17 fixed header bytes
	// (magic, version, endian, key length), the key, the payload, and a
	// 12-byte length+CRC trailer.
	hdr := 17 + len(key)
	payload := img[hdr : len(img)-12]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	// A plain counter has no invalid values: the payload with the
	// machine's cycle counter (its first word) bumped must load, re-save
	// to its own bytes, and run.
	bumped := append([]byte(nil), payload...)
	bumped[0]++
	f.Add(bumped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		if _, err := ckpt.Save(&buf, key, func(e *ckpt.Encoder) { e.Raw(data) }); err != nil {
			t.Fatal(err)
		}
		cp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
		if err != nil {
			if cp != nil {
				t.Fatal("LoadCheckpoint returned a checkpoint alongside an error")
			}
			return
		}
		var resaved bytes.Buffer
		if _, err := cp.Save(&resaved, key); err != nil {
			t.Fatalf("re-Save of an accepted payload failed: %v", err)
		}
		if !bytes.Equal(resaved.Bytes(), buf.Bytes()) {
			t.Fatalf("accepted payload (%d bytes) re-Saves to different bytes", len(data))
		}
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// imageDigests pins the SHA-256 of the container a checkpoint of the
// persistence spec (THP) saves to, per checkpoint format version.
var imageDigests = map[uint32]string{
	2: "4de349fc2293c1f94247e7590ecf30a7840e7ac4b6987499acaf887cd8ccc80d",
	3: "609a7713a2c991129fb2320722b43f26c91c83aaa27d7ab27e5d4b9cec9978de",
	4: "694cf8954b415bb82fdf1abcb09691a68087e6b0888d21c49dd57adac25c5742",
	5: "a0d7029e91afebb25464e3933fc0da1b40f131fb21b92af15ef67ebabffb755d",
}

// TestCheckpointFormatDrift guards the image format: a change to any
// state walk, to the state it walks, or to the container moves these
// bytes, and an image saved before the change would then decode as
// garbage or fail partway through its walk. Such a change must bump
// ckpt.Version, so that Load rejects an older image by its version,
// and record the new digest under the new version.
func TestCheckpointFormatDrift(t *testing.T) {
	cp, err := core.Prepare(persistSpec(t, core.THPAlways()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.Save(&buf, "format-drift"); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	want, ok := imageDigests[ckpt.Version]
	if !ok {
		t.Fatalf("no image digest recorded for checkpoint format version %d; record %s", ckpt.Version, got)
	}
	if got != want {
		t.Fatalf("checkpoint image digest is %s, want %s at format version %d: the image bytes changed, so bump ckpt.Version and record the new digest under it",
			got, want, ckpt.Version)
	}
}

// TestFootprintSumsToPayload pins the footprint's sum invariant on a
// staged pressured node carrying a memhog and a page cache: the rows
// add up to exactly the payload Save writes, each row is positive and
// no larger than that payload, and region heat counts inside vm/tables.
// A machine whose walk fails has no footprint: Footprint panics with a
// check failure instead of reporting a partial count.
func TestFootprintSumsToPayload(t *testing.T) {
	cp, err := core.Prepare(persistSpec(t, core.THPAlways()))
	if err != nil {
		t.Fatal(err)
	}
	const key = "persist:footprint-sum"
	var buf bytes.Buffer
	if _, err := cp.Save(&buf, key); err != nil {
		t.Fatal(err)
	}
	// A container is a 17-byte fixed header, the key, the payload and a
	// 12-byte trailer.
	payload := uint64(buf.Len() - 17 - len(key) - 12)
	fp, _ := cp.Footprint()
	if got := fp.TotalBytes(); got != payload {
		t.Errorf("footprint rows sum to %d bytes, the saved payload is %d:\n%s", got, payload, fp.Table())
	}
	rows := make(map[string]bool)
	for _, r := range fp.Rows {
		rows[r.Subsystem] = true
		if r.Bytes == 0 || r.Bytes > payload {
			t.Errorf("row %s is %d bytes, want 1..%d", r.Subsystem, r.Bytes, payload)
		}
	}
	for _, want := range []string{"memsys/frames", "vm/tables", "tlb+cache", "machine", "workload/memhog", "workload/pagecache"} {
		if !rows[want] {
			t.Errorf("no %s row:\n%s", want, fp.Table())
		}
	}
	if rows["vm/heat"] {
		t.Errorf("region heat has a row of its own; it belongs to vm/tables:\n%s", fp.Table())
	}

	m, img, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	m.AddTicker(1, func(uint64) {})
	defer func() {
		if r := recover(); !check.IsFailure(r) {
			t.Errorf("Footprint of a machine with a ticker: recovered %v, want a check failure", r)
		}
	}()
	core.Footprint(m, img)
}

// TestFootprintIsState proves the footprint report is a function of
// the machine's state, not of how that state was reached: a staged
// checkpoint, a fork of it, a saved-then-loaded copy, and a checkpoint
// prepared with the snapshot hatch open (which replays the load phase
// to report it) must all report equal rows.
func TestFootprintIsState(t *testing.T) {
	spec := persistSpec(t, core.THPAlways())
	const key = "persist:footprint"
	cp, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	staged, ok := cp.Footprint()
	if !ok {
		t.Fatal("staged checkpoint reports no footprint")
	}
	fm, fimg, err := cp.Fork()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.Save(&buf, key); err != nil {
		t.Fatal(err)
	}
	lcp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := lcp.Footprint()
	t.Setenv("GRAPHMEM_NO_SNAPSHOT", "1")
	hcp, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	replayed, _ := hcp.Footprint()
	for _, c := range []struct {
		name string
		fp   stats.Footprint
	}{
		{"fork", core.Footprint(fm, fimg)},
		{"saved-then-loaded", loaded},
		{"hatch-open replay", replayed},
	} {
		if !reflect.DeepEqual(c.fp, staged) {
			t.Errorf("%s footprint differs from the staged checkpoint's:\n%s\nstaged:\n%s", c.name, c.fp.Table(), staged.Table())
		}
	}
}
