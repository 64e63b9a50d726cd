package graph

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// tiny returns the CSR of the 5-vertex example network used throughout:
// 0→{1,2}, 1→{2}, 2→{3,4}, 3→{}, 4→{0}.
func tiny(t *testing.T, weighted bool) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1, 10}, {0, 2, 20}, {1, 2, 5}, {2, 3, 1}, {2, 4, 2}, {4, 0, 7},
	}
	g, err := FromEdges(5, edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := tiny(t, true)
	if g.N != 5 || g.NumEdges() != 6 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantOff := []uint64{0, 2, 3, 5, 5, 6}
	if !reflect.DeepEqual(g.Offsets, wantOff) {
		t.Fatalf("offsets = %v, want %v", g.Offsets, wantOff)
	}
	if g.OutDegree(2) != 2 || g.OutDegree(3) != 0 {
		t.Fatal("degrees wrong")
	}
	if g.AvgDegree() != 1.2 {
		t.Fatalf("avg degree = %v", g.AvgDegree())
	}
	if !g.Weighted() {
		t.Fatal("weights missing")
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(0, nil, false); err == nil {
		t.Fatal("accepted zero vertices")
	}
	if _, err := FromEdges(2, []Edge{{0, 5, 0}}, false); err == nil {
		t.Fatal("accepted out-of-range edge")
	}
}

func TestInDegrees(t *testing.T) {
	g := tiny(t, false)
	in := g.InDegrees()
	want := []uint32{1, 1, 2, 1, 1}
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("in-degrees = %v, want %v", in, want)
	}
}

func TestFootprintBytes(t *testing.T) {
	g := tiny(t, true)
	want := uint64(6*VertexEntryBytes + 6*EdgeEntryBytes + 6*ValueEntryBytes + 5*PropEntryBytes)
	if g.FootprintBytes() != want {
		t.Fatalf("footprint = %d, want %d", g.FootprintBytes(), want)
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := tiny(t, false)
	// Vertices 0 and 2 both have out-degree 2; the lowest ID wins.
	if got := g.MaxDegreeVertex(); got != 0 {
		t.Fatalf("MaxDegreeVertex = %d", got)
	}
}

// edgeSet canonicalizes a graph to a sorted (src,dst,weight) list.
func edgeSet(g *Graph) [][3]uint32 {
	var out [][3]uint32
	for v := 0; v < g.N; v++ {
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			w := uint32(0)
			if g.Weights != nil {
				w = g.Weights[i]
			}
			out = append(out, [3]uint32{uint32(v), g.Neighbors[i], w})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		if out[a][1] != out[b][1] {
			return out[a][1] < out[b][1]
		}
		return out[a][2] < out[b][2]
	})
	return out
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := tiny(t, true)
	perm := []uint32{4, 3, 2, 1, 0} // reverse
	ng, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mapping edges through perm must give the same edge set.
	want := edgeSet(g)
	for i := range want {
		want[i][0] = perm[want[i][0]]
		want[i][1] = perm[want[i][1]]
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a][0] != want[b][0] {
			return want[a][0] < want[b][0]
		}
		if want[a][1] != want[b][1] {
			return want[a][1] < want[b][1]
		}
		return want[a][2] < want[b][2]
	})
	if got := edgeSet(ng); !reflect.DeepEqual(got, want) {
		t.Fatalf("relabelled edges = %v, want %v", got, want)
	}
}

func TestRelabelRejectsNonBijection(t *testing.T) {
	g := tiny(t, false)
	if _, err := g.Relabel([]uint32{0, 0, 1, 2, 3}); err == nil {
		t.Fatal("accepted duplicate mapping")
	}
	if _, err := g.Relabel([]uint32{0, 1, 2}); err == nil {
		t.Fatal("accepted short permutation")
	}
	if _, err := g.Relabel([]uint32{0, 1, 2, 3, 9}); err == nil {
		t.Fatal("accepted out-of-range mapping")
	}
}

func TestIORoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := tiny(t, weighted)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, got) {
			t.Fatalf("round trip mismatch (weighted=%v)", weighted)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
}

// hugeHeader is a GMG1 header and nothing else, claiming 2^32 vertices
// and 2^33 edges.
func hugeHeader() []byte {
	b := append([]byte("GMG1"), 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, 1<<32)
	return binary.LittleEndian.AppendUint64(b, 1<<33)
}

// TestReadBoundsAllocationByInput requires a header that claims far
// more than the input holds to fail, naming the array it could not
// read, after allocating about what the input holds rather than what
// the header claims (2^32+1 offsets alone would be 32 GiB).
func TestReadBoundsAllocationByInput(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hugeHeader()))
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "graph: reading offsets: unexpected EOF" {
		t.Fatalf("header-only file: err = %v, want graph: reading offsets: unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("header-only file allocated %d bytes, want under 4 MiB", got)
	}
	b := hugeHeader()
	binary.LittleEndian.PutUint64(b[8:], 1<<32+1)
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "implausible header") {
		t.Fatalf("2^32+1 vertices: err = %v, want an implausible header", err)
	}
}

// TestQuickFromEdgesPreservesEdges: CSR construction preserves the edge
// multiset for arbitrary edge lists.
func TestQuickFromEdgesPreservesEdges(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 16
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Src: raw[i] % n, Dst: raw[i+1] % n})
		}
		g, err := FromEdges(n, edges, false)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		if g.NumEdges() != len(edges) {
			return false
		}
		// Per-source degree must match.
		deg := make([]uint64, n)
		for _, e := range edges {
			deg[e.Src]++
		}
		for v := 0; v < n; v++ {
			if g.Offsets[v+1]-g.Offsets[v] != deg[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRelabelRoundTrip: relabelling by perm then by its inverse
// yields the original edge set.
func TestQuickRelabelRoundTrip(t *testing.T) {
	f := func(raw []uint32, seed uint64) bool {
		const n = 12
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Src: raw[i] % n, Dst: raw[i+1] % n, Weight: raw[i] % 7})
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		// Build a permutation from the seed (rotation).
		perm := make([]uint32, n)
		inv := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32((uint64(i) + seed) % n)
			inv[perm[i]] = uint32(i)
		}
		ng, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		back, err := ng.Relabel(inv)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(edgeSet(g), edgeSet(back))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
