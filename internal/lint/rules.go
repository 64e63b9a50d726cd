package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AllRules returns the project rule table. IDs are stable: tests,
// fixtures, and review waivers refer to them by name.
func AllRules() []Rule {
	return []Rule{
		{
			ID:   "SL000",
			Name: "waiver",
			Doc: "//simlint:ignore directives must name a rule and carry a reason: " +
				"a waiver without a justification is a suppressed finding nobody " +
				"can review; malformed directives are findings themselves and " +
				"suppress nothing",
			Check: checkWaiverDirectives,
		},
		{
			ID:   "SL001",
			Name: "wallclock",
			Doc: "no time.Now/Since/Until in simulation packages: simulated time " +
				"is cycle counts; wall-clock reads make runs irreproducible",
			Applies: internalOnly,
			Check:   checkWallclock,
		},
		{
			ID:   "SL002",
			Name: "globalrand",
			Doc: "no global math/rand functions: randomness must flow through an " +
				"explicitly seeded *rand.Rand (or the project's SplitMix64) so " +
				"identical seeds give identical runs",
			Check: checkGlobalRand,
		},
		{
			ID:   "SL003",
			Name: "maprange",
			Doc: "no calls inside a range over a map in simulation packages: map " +
				"iteration order is randomized per process, so order-dependent " +
				"work must collect and sort keys first",
			Applies: internalOnly,
			Check:   checkMapRange,
		},
		{
			ID:   "SL004",
			Name: "rawcycle",
			Doc: "no raw cycle-count constants in arithmetic outside internal/cost: " +
				"latencies and penalties belong in the cost model where " +
				"experiments can vary them",
			Applies: func(path string) bool {
				return !strings.HasPrefix(path, ModulePath+"/internal/cost")
			},
			Check: checkRawCycle,
		},
		{
			ID:   "SL005",
			Name: "panic",
			Doc: "no bare panic in library packages: fail through " +
				"panic(check.Failf(...)) so tests and the simcheck sanitizer can " +
				"recognize simulator failures by type",
			Applies: func(path string) bool {
				return internalOnly(path) &&
					!strings.HasPrefix(path, ModulePath+"/internal/check")
			},
			Check: checkPanic,
		},
		{
			ID:   "SL006",
			Name: "suitecache",
			Doc: "no unsynchronized writes to Suite caches outside the promise API: " +
				"the experiment suite is shared by campaign workers, so its memo " +
				"state must live in sched.Cache promises — index-assigning or " +
				"deleting on a map-typed Suite field reintroduces the data race",
			Applies: internalOnly,
			Check:   checkSuiteCache,
		},
		{
			ID:   "SL007",
			Name: "fastpath",
			Doc: "no allocation risks in files tagged //simlint:fastpath: the " +
				"per-access engine's zero-alloc contract forbids append, map " +
				"writes, and closures capturing local variables there — " +
				"anything that can heap-allocate belongs in setup or slow-path " +
				"files",
			Applies: internalOnly,
			Check:   checkFastPath,
		},
		{
			ID:   "SL010",
			Name: "simpath",
			Doc: "no nondeterminism reachable from a simulation entrypoint: no " +
				"function transitively callable from core.Run, machine.Access*, " +
				"or the oskernel tick/fault handlers may read the wall clock, " +
				"consult global rand, or depend on map iteration order — the " +
				"interprocedural closure of SL001–SL003, with the full call " +
				"chain printed in each diagnostic",
			Applies: simEntrypointPackage,
			Check:   checkSimPath,
		},
		{
			ID:   "SL011",
			Name: "isolation",
			Doc: "no shared mutable package state on the simulation path: packages " +
				"reachable from the simulation entrypoints may not declare " +
				"package-level variables that are written after init, nor write " +
				"other packages' globals — the precondition for running pooled " +
				"Machine instances concurrently (sharded engine, service mode)",
			Applies: internalOnly,
			Check:   checkIsolation,
		},
		{
			ID:   "SL012",
			Name: "fastpath-reach",
			Doc: "functions called from files tagged //simlint:fastpath must be " +
				"allocation-free per the facts engine: SL007 polices the tagged " +
				"file's own body, this rule follows every call out of it " +
				"(transitively, panic paths exempt) so the zero-alloc contract " +
				"cannot leak through a helper",
			Applies: internalOnly,
			Check:   checkFastPathReach,
		},
		{
			ID:   "SL013",
			Name: "state-completeness",
			Doc: "every state method (the one field list fork, checkpoint encode " +
				"and decode are derived from) must reference every field of its " +
				"receiver struct (selector, composite-literal key, or unkeyed " +
				"literal), in its own body or a same-package function it " +
				"transitively reaches — a field the walk never mentions is state " +
				"every fork and reloaded checkpoint silently drops; every " +
				"ckpt.Fixed/Num/Slice/Pages/Map instantiation must name a pointer-free, " +
				"padding-free type; machine.Machine must have a state method to " +
				"anchor the contract",
			Applies: internalOnly,
			Check:   checkStateCompleteness,
		},
		{
			ID:   "SL014",
			Name: "shard-isolation",
			Doc: "functions declared in files tagged //simlint:shardworker may not " +
				"reach a package-level state write: shard workers run " +
				"concurrently on scheduler goroutines between barriers, so any " +
				"global a worker (or anything it transitively calls) mutates is " +
				"shared across shards and breaks the deterministic merge — the " +
				"per-shard state vector is the only legal home for kernel-phase " +
				"state; diagnostics print the call chain, same as SL010",
			Applies: internalOnly,
			Check:   checkShardWorker,
		},
	}
}

// simEntrypointPackage restricts SL010 to the packages that define
// simulation entrypoints; its diagnostics still point anywhere the
// chains lead.
func simEntrypointPackage(path string) bool {
	switch path {
	case ModulePath + "/internal/core",
		ModulePath + "/internal/machine",
		ModulePath + "/internal/oskernel":
		return true
	}
	return false
}

// RuleByID returns the rule with the given ID, or false.
func RuleByID(id string) (Rule, bool) {
	for _, r := range AllRules() {
		if r.ID == id {
			return r, true
		}
	}
	return Rule{}, false
}

func internalOnly(path string) bool {
	return strings.HasPrefix(path, ModulePath+"/internal/")
}

// calleeFunc resolves the called function of a CallExpr, or nil when the
// callee is a builtin, a type conversion, or a function-typed value.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// inspectCalls visits every call expression in the pass's files.
func inspectCalls(p *Pass, visit func(call *ast.CallExpr)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				visit(call)
			}
			return true
		})
	}
}

// --- SL001: wallclock ---------------------------------------------------

func checkWallclock(p *Pass) {
	inspectCalls(p, func(call *ast.CallExpr) {
		f := calleeFunc(p.Info, call)
		if f == nil || f.Pkg() == nil || f.Pkg().Path() != "time" {
			return
		}
		switch f.Name() {
		case "Now", "Since", "Until":
			p.Reportf(call.Pos(), "time.%s in simulation code: simulated time is cycle counts; wall-clock reads are irreproducible", f.Name())
		}
	})
}

// --- SL002: globalrand --------------------------------------------------

// globalRandAllowed lists the math/rand package-level functions that do
// not touch the shared global source: they construct the threaded state
// the rule wants callers to use.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func checkGlobalRand(p *Pass) {
	inspectCalls(p, func(call *ast.CallExpr) {
		f := calleeFunc(p.Info, call)
		if f == nil || f.Pkg() == nil {
			return
		}
		path := f.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return
		}
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // method on an explicit *rand.Rand: the sanctioned form
		}
		if globalRandAllowed[f.Name()] {
			return
		}
		p.Reportf(call.Pos(), "global rand.%s: thread an explicitly seeded *rand.Rand through the call path", f.Name())
	})
}

// --- SL003: maprange ----------------------------------------------------

func checkMapRange(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isOrderInsensitiveCall(p.Info, call) {
					return true
				}
				p.Reportf(call.Pos(), "call to %s inside range over map: iteration order is randomized; collect keys, sort, then iterate (append-then-sort is exempt)", types.ExprString(call.Fun))
				return true
			})
			return true
		})
	}
}

// isOrderInsensitiveCall reports whether a call inside a map-range body
// cannot leak iteration order into simulator state: builtins (append
// for the collect-then-sort pattern, delete, len, cap, make, ...) and
// type conversions.
func isOrderInsensitiveCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return true // conversion
	}
	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// --- SL004: rawcycle ----------------------------------------------------

func checkRawCycle(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				switch e.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
				default:
					return true
				}
				if (cycleNamed(e.X) && rawIntLit(e.Y)) || (cycleNamed(e.Y) && rawIntLit(e.X)) {
					p.Reportf(e.Pos(), "raw cycle constant in %q: latency and penalty constants belong in internal/cost", types.ExprString(e))
				}
			case *ast.AssignStmt:
				switch e.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				default:
					return true
				}
				if len(e.Lhs) == 1 && len(e.Rhs) == 1 && cycleNamed(e.Lhs[0]) && rawIntLit(e.Rhs[0]) {
					p.Reportf(e.Pos(), "raw cycle constant in %q: latency and penalty constants belong in internal/cost",
						types.ExprString(e.Lhs[0])+" "+e.Tok.String()+" "+types.ExprString(e.Rhs[0]))
				}
			}
			return true
		})
	}
}

// cycleNamed reports whether expr is an identifier or field selection
// whose name mentions cycles.
func cycleNamed(expr ast.Expr) bool {
	var name string
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "cycle")
}

// rawIntLit reports whether expr is an integer literal ≥ 2 — the
// threshold exempts the shift/halving idioms (x*1, x/2 is borderline
// but /2 and *2 DO count; only 0 and 1 are structural).
func rawIntLit(expr ast.Expr) bool {
	lit, ok := ast.Unparen(expr).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return false
	}
	v, err := strconv.ParseUint(strings.ReplaceAll(lit.Value, "_", ""), 0, 64)
	return err == nil && v >= 2
}

// --- SL005: panic -------------------------------------------------------

func checkPanic(p *Pass) {
	inspectCalls(p, func(call *ast.CallExpr) {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return
		}
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return // shadowed: some local function named panic
		}
		if len(call.Args) == 1 && isCheckFailf(p.Info, call.Args[0]) {
			return
		}
		p.Reportf(call.Pos(), "bare panic in library package: use panic(check.Failf(...)) so failures carry a typed check.Failure")
	})
}

// --- SL006: suitecache --------------------------------------------------

// checkSuiteCache flags mutating accesses to map-typed fields of a type
// named Suite: `s.runs[k] = v` and `delete(s.graphs, k)`. Since the
// campaign scheduler landed, the experiment suite is shared across
// worker goroutines and all memoization must go through the sched.Cache
// promise API; a plain-map cache field is exactly the state such writes
// would race on. Reads are not flagged — the rule targets the mutation,
// which is what the promise cache removes.
func checkSuiteCache(p *Pass) {
	report := func(pos token.Pos, sel *ast.SelectorExpr, verb string) {
		p.Reportf(pos, "%s map-typed Suite cache field %s outside the promise API: use sched.Cache.Get so campaign workers cannot race",
			verb, types.ExprString(sel))
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range e.Lhs {
					idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok {
						continue
					}
					if sel, ok := suiteMapField(p.Info, idx.X); ok {
						report(lhs.Pos(), sel, "write to")
					}
				}
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				if !ok || id.Name != "delete" || len(e.Args) != 2 {
					return true
				}
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				if sel, ok := suiteMapField(p.Info, e.Args[0]); ok {
					report(e.Pos(), sel, "delete on")
				}
			}
			return true
		})
	}
}

// suiteMapField reports whether expr selects a map-typed field of a
// named type called Suite (directly or through a pointer).
func suiteMapField(info *types.Info, expr ast.Expr) (*ast.SelectorExpr, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, false
	}
	if _, isMap := s.Type().Underlying().(*types.Map); !isMap {
		return nil, false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return sel, ok && named.Obj().Name() == "Suite"
}

// --- SL007: fastpath ----------------------------------------------------

// checkFastPath enforces the zero-alloc contract on files carrying a
// //simlint:fastpath directive comment (the per-access engine, e.g.
// internal/machine/access.go). Three allocation hazards are flagged:
// append calls (slice growth), map writes (insert/rehash), and function
// literals that capture local variables (the capture forces a heap
// closure). The AllocsPerRun test proves the contract holds today; this
// rule keeps regressions from compiling in silently.
func checkFastPath(p *Pass) {
	for _, file := range p.Files {
		if !hasFastPathDirective(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				id, ok := ast.Unparen(e.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					return true
				}
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					p.Reportf(e.Pos(), "append in fast-path file: slice growth can allocate per access; preallocate in setup code")
				}
			case *ast.AssignStmt:
				for _, lhs := range e.Lhs {
					if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(p.Info, idx) {
						p.Reportf(lhs.Pos(), "map write in fast-path file: map assignment can allocate and rehash per access; use preallocated arrays or slices")
					}
				}
			case *ast.IncDecStmt:
				if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok && isMapIndex(p.Info, idx) {
					p.Reportf(e.Pos(), "map write in fast-path file: map assignment can allocate and rehash per access; use preallocated arrays or slices")
				}
			case *ast.FuncLit:
				reportClosureCaptures(p, e)
			}
			return true
		})
	}
}

// hasFastPathDirective reports whether the file carries a
// //simlint:fastpath comment (conventionally the first line).
func hasFastPathDirective(f *ast.File) bool {
	return hasFileDirective(f, "//simlint:fastpath")
}

// hasShardWorkerDirective reports whether the file carries a
// //simlint:shardworker comment — the tag on files whose functions run
// concurrently on shard worker goroutines (SL014).
func hasShardWorkerDirective(f *ast.File) bool {
	return hasFileDirective(f, "//simlint:shardworker")
}

// hasFileDirective reports whether any comment in the file is exactly
// the given directive (conventionally the first line).
func hasFileDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == directive {
				return true
			}
		}
	}
	return false
}

// isMapIndex reports whether idx indexes a map-typed operand.
func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	tv, ok := info.Types[idx.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// reportClosureCaptures flags local variables a function literal closes
// over: the capture forces both the closure and (usually) the variable
// onto the heap. Package-level variables and the literal's own
// parameters and locals (whose declarations sit inside the literal's
// source range) are free.
func reportClosureCaptures(p *Pass, lit *ast.FuncLit) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pkg() != p.Pkg || v.Parent() == p.Pkg.Scope() {
			return true // package-level or foreign: not a capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		seen[v] = true
		p.Reportf(id.Pos(), "closure capturing %q in fast-path file: captured locals escape to the heap; pass state explicitly or hoist the function", v.Name())
		return true
	})
}

// isCheckFailf reports whether expr is a call to
// graphmem/internal/check.Failf.
func isCheckFailf(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	f := calleeFunc(info, call)
	return f != nil && f.Name() == "Failf" &&
		f.Pkg() != nil && f.Pkg().Path() == ModulePath+"/internal/check"
}
