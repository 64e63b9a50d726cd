package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
)

// SL013: state-walk completeness. Forks, checkpoint saves and checkpoint
// loads are all derived from one field list per state-vector type, its
// unexported state method (DESIGN.md §5e). A field that list never
// mentions is state every fork and every reloaded checkpoint silently
// drops — and the byte-identity gates only catch that for state the
// campaign happens to exercise. This rule closes the gap statically:
// for every struct with a state method declared in the pass's package,
// each declared field must be *referenced* — read through a selector,
// named as a composite-literal key, or covered by an unkeyed literal —
// inside the method or inside a same-package function it transitively
// reaches (per the facts engine's call graph). A binding the walk
// deliberately leaves to a bind step still satisfies the rule by being
// mentioned (`_ = v.space` with a comment); a field the walk has never
// heard of does not, which is the failure mode this rule is for.
//
// The walk helpers that move a value as raw host memory (ckpt.Fixed,
// Num, Slice, Pages and Map) are only sound for pointer-free,
// padding-free types: a pointer would serialize a host address, and padding bytes
// are not guaranteed deterministic. The rule checks every instantiation.

// checkStateCompleteness verifies every state method declared in the
// package references every field of its receiver struct, checks the
// raw-memory walk instantiations, and anchors the whole contract by
// requiring that machine.Machine — the root of the walked object graph
// — has a state method at all (without the anchor, deleting the walks
// wholesale would also delete every struct this rule checks, and the
// rule would pass vacuously).
func checkStateCompleteness(p *Pass) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	var walks []*types.Func
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if named := receiverStruct(fn); fd.Name.Name == "state" && named != nil && named.Obj().Pkg() == p.Pkg {
				walks = append(walks, fn)
			}
		}
	}
	anchored := false
	for _, fn := range walks {
		named := receiverStruct(fn)
		anchored = anchored || named.Obj().Name() == "Machine"
		refs := make(map[types.Object]bool)
		for _, fd := range reachableDecls(p, p.runner.factsEngine(), fn, decls) {
			collectFieldRefs(p, fd, refs)
		}
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() != "_" && !refs[f] {
				p.Reportf(f.Pos(), "field %s.%s is never referenced by its state walk or any same-package function it reaches: forks and checkpoints would silently drop it; walk it (or mention it as a binding with a comment)",
					named.Obj().Name(), f.Name())
			}
		}
	}
	if p.Path == ModulePath+"/internal/machine" && !anchored {
		if pos := typeDeclPos(p, "Machine"); pos.IsValid() {
			p.Reportf(pos, "machine.Machine has no state method: the root state walk is missing (SL013's completeness contract has nothing to anchor to)")
		}
	}
	checkRawWalks(p)
}

// rawWalkers are the ckpt helpers that move their type arguments as raw
// host memory.
var rawWalkers = map[string]bool{"Fixed": true, "Num": true, "Slice": true, "Pages": true, "Map": true}

// checkRawWalks reports every instantiation of a raw-memory walk helper
// whose type argument holds a pointer or padding.
func checkRawWalks(p *Pass) {
	sizes := types.SizesFor("gc", runtime.GOARCH)
	var ids []*ast.Ident
	for id := range p.Info.Instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Pos() < ids[j].Pos() })
	for _, id := range ids {
		inst := p.Info.Instances[id]
		fn, ok := p.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != ModulePath+"/internal/ckpt" || !rawWalkers[fn.Name()] {
			continue
		}
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			t := inst.TypeArgs.At(i)
			if _, generic := t.(*types.TypeParam); generic {
				continue
			}
			if why := rawProblem(t, sizes); why != "" {
				p.Reportf(id.Pos(), "ckpt.%s walks %s as raw memory, but it %s", fn.Name(), t, why)
			}
		}
	}
}

// rawProblem says why t cannot be moved as raw memory ("" when it can).
func rawProblem(t types.Type, sizes types.Sizes) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsString != 0 || u.Kind() == types.UnsafePointer {
			return "holds a pointer"
		}
		return ""
	case *types.Array:
		return rawProblem(u.Elem(), sizes)
	case *types.Struct:
		var sum int64
		for i := 0; i < u.NumFields(); i++ {
			if why := rawProblem(u.Field(i).Type(), sizes); why != "" {
				return why
			}
			sum += sizes.Sizeof(u.Field(i).Type())
		}
		if sum != sizes.Sizeof(u) {
			return "has padding"
		}
		return ""
	}
	return "holds a pointer"
}

// typeDeclPos finds the declaration position of a named type in the
// pass's files (token.NoPos when absent).
func typeDeclPos(p *Pass, name string) token.Pos {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return ts.Name.Pos()
				}
			}
		}
	}
	return token.NoPos
}

// receiverStruct resolves a method's receiver to its named struct
// type, looking through one level of pointer.
func receiverStruct(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// reachableDecls returns the function declarations in the pass's
// package transitively reachable from fn (fn included), per the facts
// engine's call graph. Function literals need no separate handling:
// a literal's body is nested inside some declaration's AST, and
// ast.Inspect over that declaration walks it.
func reachableDecls(p *Pass, fe *factsEngine, fn *types.Func, decls map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	root := fe.graph.byFunc[fn]
	if root == nil {
		if fd := decls[fn]; fd != nil {
			return []*ast.FuncDecl{fd}
		}
		return nil
	}
	seen := map[*graphNode]bool{root: true}
	queue := []*graphNode{root}
	var out []*ast.FuncDecl
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.fn != nil {
			if fd := decls[n.fn]; fd != nil {
				out = append(out, fd)
			}
		}
		for _, e := range n.out {
			if e.to.pkg != p.Pkg || seen[e.to] {
				continue
			}
			seen[e.to] = true
			queue = append(queue, e.to)
		}
	}
	return out
}

// collectFieldRefs records every struct field the declaration's body
// references: selector reads/writes (types.FieldVal selections), keys
// of keyed struct composite literals, and — for unkeyed struct
// literals — every field of the literal's type.
func collectFieldRefs(p *Pass, fd *ast.FuncDecl, refs map[types.Object]bool) {
	ast.Inspect(fd, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				refs[sel.Obj()] = true
			}
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[e]
			if !ok {
				return true
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			keyed := false
			for _, elt := range e.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				if key, ok := kv.Key.(*ast.Ident); ok {
					if obj := p.Info.Uses[key]; obj != nil {
						refs[obj] = true
					}
				}
			}
			if !keyed && len(e.Elts) > 0 {
				for i := 0; i < st.NumFields(); i++ {
					refs[st.Field(i)] = true
				}
			}
		}
		return true
	})
}
