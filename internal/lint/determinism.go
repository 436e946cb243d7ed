package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism is the reproducibility gate: two runs of the simulator with
// the same configuration must produce byte-identical artifacts (the
// campaign fingerprints in internal/harness pin this end to end; this
// analyzer pins the code patterns that break it). Two rules:
//
//  1. Map iteration order is randomized per run, so a `range` over a map
//     must not reach an ordered sink. Flagged inside a map-range body:
//     calls that emit in iteration order (fmt print/Fprint variants,
//     Write*/Record/Instant-style writers),
//     and appends to a slice variable declared outside the loop
//     — unless the slice is passed to a sort call after the loop (the
//     collect-then-sort idiom). Appends into indexed or field targets are
//     exempt (per-key state, not an ordered rendering), and so are pure
//     map/set writes, which are order-independent.
//
//  2. Floating-point accumulation (+= / -= or x = x + y on floats) into
//     state captured from outside a concurrent body reorders across
//     goroutine interleavings, and float addition is not associative.
//     Accumulate into worker-local state and reduce in a fixed order
//     after the join instead.
//
// Wall-clock reads and process-global randomness are not flagged: when
// they reach an output, the determinism and golden tests fail.
//
// Lexical soundness caveat (mirrors sharedstate's): rule 1 sees appends
// and sink calls written directly in the range body; an append hidden
// behind a locally bound closure called from the loop is not attributed
// to the loop.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no map-order or float-merge nondeterminism in simulation outputs",
	Run:  runDeterminism,
}

// orderedSinkNames are method/function names treated as ordered emission
// when called inside a map-range body: stream writers and the trace/
// flight-recorder event emitters. Metric Inc/Add/Observe are deliberately
// absent — commutative updates are order-independent.
var orderedSinkNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Record": true, "Instant": true, "Emit": true,
}

func runDeterminism(pass *Pass) {
	ip := pass.secrets.interp
	if ip == nil {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			checkMapRanges(pass, info, body)
		})
	}
	checkFloatMerge(pass)
}

// checkMapRanges applies rule 1 to one function body (nested literals get
// their own visit via funcBodies, so loops and their sorts are matched
// within a single lexical scope).
func checkMapRanges(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Collect sort calls once: any call into package sort, with the set of
	// objects mentioned in its arguments.
	type sortCall struct {
		pos  token.Pos
		objs map[types.Object]bool
	}
	var sorts []sortCall
	inspectSkipFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee, _ := calleeObject(info, call).(*types.Func)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sort" {
			return
		}
		sc := sortCall{pos: call.Pos(), objs: make(map[types.Object]bool)}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						sc.objs[obj] = true
					}
				}
				return true
			})
		}
		sorts = append(sorts, sc)
	})
	sortedAfter := func(obj types.Object, after token.Pos) bool {
		for _, sc := range sorts {
			if sc.pos > after && sc.objs[obj] {
				return true
			}
		}
		return false
	}

	inspectSkipFuncLits(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		inspectSkipFuncLits(rng.Body, func(m ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			if desc, ok := orderedSinkCall(info, call); ok {
				pass.Reportf(call.Pos(),
					"%s inside a map range emits in randomized iteration order; iterate a sorted key slice instead", desc)
				return
			}
			// dst = append(dst, ...) growing an outer slice in map order.
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return
			}
			if len(call.Args) == 0 {
				return
			}
			target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return // indexed/field targets hold per-key state, exempt
			}
			obj := info.Uses[target]
			if obj == nil {
				return
			}
			if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
				return // loop-local scratch, rebuilt per iteration
			}
			if sortedAfter(obj, rng.End()) {
				return // collect-then-sort idiom
			}
			pass.Reportf(call.Pos(),
				"append to %s inside a map range records randomized iteration order and %s is never sorted afterwards; sort it (or iterate sorted keys) before it is rendered",
				obj.Name(), obj.Name())
		})
	})
}

// orderedSinkCall reports calls that emit output in call order.
func orderedSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	callee, _ := calleeObject(info, call).(*types.Func)
	if callee == nil {
		return "", false
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch callee.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + callee.Name(), true
		}
		// Sprint*/Errorf construct values without emitting; whether their
		// results are rendered in map order is the consumer's concern and
		// the append rule below covers the recording side.
		return "", false
	}
	if orderedSinkNames[callee.Name()] {
		return callee.Name() + " call", true
	}
	return "", false
}

// checkFloatMerge applies rule 2 over the module-wide concurrent-body sets
// (shared with sharedstate via the interproc cache).
func checkFloatMerge(pass *Pass) {
	ip := pass.secrets.interp
	cc := ip.concurrency()
	flagged := make(map[token.Pos]bool)
	check := func(pkg *Package, blk *ast.BlockStmt) {
		if pkg != pass.Pkg {
			return
		}
		info := pkg.Info
		inspectSkipFuncLits(blk, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			var target ast.Expr
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				target = as.Lhs[0]
			case token.ASSIGN:
				// x = x + y (or x - y) on floats counts too.
				if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return
				}
				bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
				if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
					return
				}
				if coreName(as.Lhs[0]) == "" || coreName(as.Lhs[0]) != coreName(bin.X) {
					return
				}
				target = as.Lhs[0]
			default:
				return
			}
			id, _ := writeRoot(info, target)
			if id == nil {
				return
			}
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj == nil || flagged[id.Pos()] {
				return
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			if !floatType(info.Types[target].Type) {
				return
			}
			// Only state captured from outside the concurrent body (or
			// package-level) merges across goroutines; body-locals are
			// worker-private and fine.
			if v.Pos() >= blk.Pos() && v.Pos() <= blk.End() &&
				!(v.Pkg() != nil && v.Parent() == v.Pkg().Scope()) {
				return
			}
			flagged[id.Pos()] = true
			pass.Reportf(id.Pos(),
				"float accumulation into %s inside a concurrent body is interleaving-dependent (float addition is not associative); accumulate per worker and reduce in a fixed order after the join",
				v.Name())
		})
	}
	for lit, isConc := range cc.conc {
		if isConc {
			check(cc.scan.pkgOf[lit], lit.Body)
		}
	}
	for fn, isConc := range cc.concFuncs {
		if isConc {
			if decl := ip.graph.decls[fn]; decl != nil {
				check(ip.graph.pkgOf[fn], decl.Body)
			}
		}
	}
}

func floatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// funcBodies yields every function-like body in a file — each FuncDecl body
// and each FuncLit body — exactly once, with nested literals excluded from
// their enclosing body's walk.
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
			walkBody(fn.Body, visit)
		}
	}
}

func walkBody(body *ast.BlockStmt, visit func(*ast.BlockStmt)) {
	visit(body)
	inspectSkipFuncLits(body, func(n ast.Node) {
		if lit, ok := n.(*ast.FuncLit); ok {
			walkBody(lit.Body, visit)
		}
	})
}
