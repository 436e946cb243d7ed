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
// Lexical soundness caveat: rule 1 sees appends and sink calls written
// directly in the range body; an append hidden behind a locally bound
// closure called from the loop is not attributed to the loop. Rule 2 sees
// accumulations written in a concurrent body itself, not in the functions
// it calls.
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

// checkFloatMerge applies rule 2 over the module-wide concurrent-body sets,
// which the module index computes once per run.
func checkFloatMerge(pass *Pass) {
	m := pass.module
	cc := m.concurrency()
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
			id := writeRoot(target)
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
			if decl := m.decls[fn]; decl != nil {
				check(m.pkgOf[fn], decl.Body)
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

// litScan is the module-wide scan feeding the concurrent-body fixpoint.
type litScan struct {
	// pkgOf maps each literal to its package; parent maps nested literals
	// to their innermost enclosing literal (nil = declared at function
	// level).
	pkgOf  map[*ast.FuncLit]*Package
	parent map[*ast.FuncLit]*ast.FuncLit
	// goLits are literals launched directly by a go statement.
	goLits map[*ast.FuncLit]bool
	// goFuncs are named module functions launched by a go statement.
	goFuncs map[*types.Func]bool
	// goVars are function-typed objects invoked by a go statement.
	goVars map[types.Object]bool
	// bindings maps function-typed objects to literals bound to them.
	bindings map[types.Object][]*ast.FuncLit
	// passes maps callee-parameter objects to function-typed argument
	// objects passed for them (hotness flows param -> argument).
	passes map[types.Object][]types.Object
	// mentions maps function-typed objects to the literals (or named
	// functions, via declMentions) whose bodies mention them.
	mentions     map[types.Object][]*ast.FuncLit
	declMentions map[types.Object][]*types.Func
}

// scanLiterals walks every module function once, recording function
// literals, go statements, bindings of literals to function-typed
// objects, hotness hand-offs at call sites, and mentions of function-typed
// objects inside literals.
func scanLiterals(mod *moduleIndex) *litScan {
	s := &litScan{
		pkgOf:        make(map[*ast.FuncLit]*Package),
		parent:       make(map[*ast.FuncLit]*ast.FuncLit),
		goLits:       make(map[*ast.FuncLit]bool),
		goFuncs:      make(map[*types.Func]bool),
		goVars:       make(map[types.Object]bool),
		bindings:     make(map[types.Object][]*ast.FuncLit),
		passes:       make(map[types.Object][]types.Object),
		mentions:     make(map[types.Object][]*ast.FuncLit),
		declMentions: make(map[types.Object][]*types.Func),
	}
	// Parameter objects per module function, in declaration order, for
	// resolving call-argument bindings.
	paramObjs := make(map[*types.Func][]types.Object)
	for fn, decl := range mod.decls {
		var objs []types.Object
		if decl.Type.Params != nil {
			info := mod.pkgOf[fn].Info
			for _, field := range decl.Type.Params.List {
				if len(field.Names) == 0 {
					objs = append(objs, nil)
					continue
				}
				for _, name := range field.Names {
					objs = append(objs, info.Defs[name])
				}
			}
		}
		paramObjs[fn] = objs
	}

	funcObj := func(info *types.Info, e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok {
				return sel.Obj()
			}
			return info.Uses[e.Sel]
		}
		return nil
	}

	for fn, decl := range mod.decls {
		pkg := mod.pkgOf[fn]
		info := pkg.Info
		var walk func(n ast.Node, enclosing *ast.FuncLit)
		record := func(obj types.Object, enclosing *ast.FuncLit) {
			if obj == nil {
				return
			}
			if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
				return
			}
			if enclosing != nil {
				s.mentions[obj] = append(s.mentions[obj], enclosing)
			} else {
				s.declMentions[obj] = append(s.declMentions[obj], fn)
			}
		}
		bind := func(obj types.Object, rhs ast.Expr) {
			if obj == nil {
				return
			}
			if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				s.bindings[obj] = append(s.bindings[obj], lit)
			}
		}
		walk = func(n ast.Node, enclosing *ast.FuncLit) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					if m != n {
						s.pkgOf[m] = pkg
						s.parent[m] = enclosing
						walk(m.Body, m)
						return false
					}
				case *ast.GoStmt:
					if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
						s.goLits[lit] = true
					} else if obj := funcObj(info, m.Call.Fun); obj != nil {
						if callee, ok := obj.(*types.Func); ok {
							if _, inModule := mod.decls[callee]; inModule {
								s.goFuncs[callee] = true
							}
						} else {
							s.goVars[obj] = true
						}
					}
				case *ast.Ident:
					if obj := info.Uses[m]; obj != nil {
						record(obj, enclosing)
					}
				case *ast.AssignStmt:
					for i, lhs := range m.Lhs {
						if i >= len(m.Rhs) {
							break
						}
						bind(funcObj(info, lhs), m.Rhs[i])
					}
				case *ast.ValueSpec:
					for i, name := range m.Names {
						if i >= len(m.Values) {
							break
						}
						bind(info.Defs[name], m.Values[i])
					}
				case *ast.KeyValueExpr:
					if key, ok := m.Key.(*ast.Ident); ok {
						bind(info.Uses[key], m.Value)
					}
				case *ast.CallExpr:
					callee, _ := calleeObject(info, m).(*types.Func)
					params := paramObjs[callee]
					if params == nil {
						return true
					}
					for i, arg := range m.Args {
						if i >= len(params) || params[i] == nil {
							continue
						}
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							s.bindings[params[i]] = append(s.bindings[params[i]], lit)
						} else if obj := funcObj(info, arg); obj != nil {
							s.passes[params[i]] = append(s.passes[params[i]], obj)
						}
					}
				}
				return true
			})
		}
		walk(decl.Body, nil)
	}
	return s
}

// propagateConcurrency finds the concurrent bodies: the function literals,
// and the named functions, that may run on another goroutine. They are
// discovered module-wide, not just at go statements, because the
// program's parallelism is funneled through a worker pool: a literal
// passed to harness.parallelFor runs on a worker goroutine though no go
// keyword appears at the call site. The rules, iterated to a fixpoint:
// (1) a literal in a go statement is concurrent; (2) a function-typed
// parameter, variable or field mentioned inside a concurrent body is
// "hot", and every literal bound to a hot object (by assignment,
// composite literal or call argument) is concurrent, which covers
// worker-pool submissions, locally stored closures invoked from a
// goroutine, and callbacks parked in fields; (3) literals nested inside a
// concurrent body are concurrent; (4) a named module function launched
// with go f(), or passed for a hot parameter, is concurrent.
func propagateConcurrency(s *litScan) (map[*ast.FuncLit]bool, map[*types.Func]bool) {
	conc := make(map[*ast.FuncLit]bool, len(s.goLits))
	hot := make(map[types.Object]bool, len(s.goVars))
	for lit := range s.goLits {
		conc[lit] = true
	}
	for obj := range s.goVars {
		hot[obj] = true
	}
	concFuncs := make(map[*types.Func]bool, len(s.goFuncs))
	for fn := range s.goFuncs {
		concFuncs[fn] = true
	}
	for round := 0; round < 10; round++ {
		changed := false
		mark := func(lit *ast.FuncLit) {
			if !conc[lit] {
				conc[lit] = true
				changed = true
			}
		}
		// Nested literals of concurrent literals run on the same goroutine.
		for lit, parent := range s.parent {
			if parent != nil && conc[parent] {
				mark(lit)
			}
		}
		// A function-typed object mentioned in a concurrent context is hot.
		for obj, lits := range s.mentions {
			if hot[obj] {
				continue
			}
			for _, lit := range lits {
				if conc[lit] {
					hot[obj] = true
					changed = true
					break
				}
			}
		}
		for obj, fns := range s.declMentions {
			if hot[obj] {
				continue
			}
			for _, fn := range fns {
				if concFuncs[fn] {
					hot[obj] = true
					changed = true
					break
				}
			}
		}
		// Literals bound to hot objects are concurrent; function-typed
		// arguments passed into hot parameters become hot.
		for obj, lits := range s.bindings {
			if !hot[obj] {
				continue
			}
			for _, lit := range lits {
				mark(lit)
			}
		}
		for param, args := range s.passes {
			if !hot[param] {
				continue
			}
			for _, arg := range args {
				if fn, ok := arg.(*types.Func); ok {
					if !concFuncs[fn] {
						concFuncs[fn] = true
						changed = true
					}
					continue
				}
				if !hot[arg] {
					hot[arg] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return conc, concFuncs
}

// writeRoot resolves an assignment target to its root identifier (x for
// x, x[i], x.f and *x), or nil.
func writeRoot(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}
