package analytics

import (
	"graphmem/internal/ckpt"
	"graphmem/internal/graph"
	"graphmem/internal/machine"
	"graphmem/internal/vm"
)

// State walk (DESIGN.md §5e). The image's array state lives entirely in
// the machine (the VMAs and their mapped pages); the image itself is
// bindings, array references, and the init flag. Array references go
// through vm.WalkRef. The graph is never serialized — it is immutable
// input, re-derived from the experiment spec by the caller — and a
// decoded image's array extents are checked against it, so an image can
// never be attached to the wrong graph.

// Initialized reports whether the image's init phase has run — a
// checkpointed image always has; loaders reject one that claims
// otherwise rather than letting Run panic later.
func (img *Image) Initialized() bool { return img.initialized }

// Walk forks, encodes, or decodes the image *p. A fork or a decoded copy
// is bound to m — the forked or decoded machine — and g.
func Walk(w *ckpt.Walker, p **Image, m *machine.Machine, g *graph.Graph) {
	ckpt.Ptr(w, p, func(img *Image, w *ckpt.Walker) {
		if w.Encoder() == nil {
			img.M, img.G = m, g
		}
		img.state(w)
	})
	if d := w.Decoder(); d != nil {
		(*p).validate(d)
	}
}

func (img *Image) state(w *ckpt.Walker) {
	_, _ = img.M, img.G // bindings; set by Walk
	w.String((*string)(&img.App))
	space := img.M.Space
	vm.WalkRef(w, &img.Vertex, space, `analytics: image array "vertex"`)
	vm.WalkRef(w, &img.Edge, space, `analytics: image array "edge"`)
	vm.WalkRef(w, &img.Values, space, `analytics: image array "values"`)
	vm.WalkRef(w, &img.Prop, space, `analytics: image array "prop"`)
	vm.WalkRef(w, &img.Work, space, `analytics: image array "worklist"`)
	vm.WalkRef(w, &img.Misc, space, `analytics: image array "process"`)
	w.Bool(&img.initialized)
}

// validate fails the decoder unless the image runs a known app and every
// array exists exactly when NewImage would create it, spanning exactly
// what the graph needs: the address helpers index these VMAs straight
// from graph extents.
func (img *Image) validate(d *ckpt.Decoder) {
	if d.Err() != nil {
		return
	}
	switch img.App {
	case BFS, SSSP, PR, CC, BC:
	default:
		d.Failf("analytics: unknown app %q", img.App)
		return
	}
	g := img.G
	check := func(v *vm.VMA, name string, want uint64) {
		if want == 0 {
			if v != nil {
				d.Failf("analytics: image carries a %q array the app does not use", name)
			}
			return
		}
		if v == nil {
			d.Failf("analytics: image is missing its %q array", name)
			return
		}
		if v.Bytes != want {
			d.Failf("analytics: %q array spans %d bytes, graph needs %d", name, v.Bytes, want)
		}
	}
	check(img.Vertex, "vertex", uint64(len(g.Offsets))*graph.VertexEntryBytes)
	check(img.Edge, "edge", uint64(g.NumEdges())*graph.EdgeEntryBytes)
	valBytes := uint64(0)
	if img.App == SSSP {
		valBytes = uint64(g.NumEdges()) * graph.ValueEntryBytes
	}
	check(img.Values, "values", valBytes)
	check(img.Prop, "prop", uint64(g.N)*PropEntryBytes(img.App))
	check(img.Work, "worklist", WorklistBytes(img.App, g.N))
	check(img.Misc, "process", MiscBytes)
}
