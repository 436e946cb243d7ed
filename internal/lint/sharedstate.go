package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SharedState is the concurrency gate for the campaign fan-out
// (harness.parallelDo): any variable reached from more than one goroutine
// must be mutex-guarded on every access path or accessed via sync/atomic.
// The analyzer finds "concurrent bodies" — function literals that may run
// on another goroutine — and flags unguarded writes to captured or
// package-level state inside them, plus unguarded reads of state some
// concurrent body writes.
//
// Concurrent bodies are discovered module-wide, not just at `go`
// statements, because the repo's parallelism is funneled through worker
// pools: a literal passed to harness.parallelFor runs on a worker
// goroutine even though no `go` keyword appears at the call site. The
// propagation rules: (1) a literal in a `go` statement is concurrent; (2)
// a function-typed parameter, variable, or field mentioned inside a
// concurrent body is "hot", and every literal bound to a hot object
// (assignment, composite literal, or call argument) is concurrent — this
// covers worker-pool submissions, locally stored closures invoked from a
// goroutine, and callbacks parked in fields; (3) literals nested inside a
// concurrent body are concurrent; (4) a named function launched with `go
// f()` has its package-variable accesses treated as concurrent.
//
// Exemptions, each matching an intended sharing idiom: channels and sync/
// sync-atomic values (their whole point), function values that are only
// read, read-only captures (nothing writes them concurrently), and
// writes to distinct slice/array elements (`out[i] = v` — the
// partitioned parallel-for idiom where each worker owns index i).
// Guardedness is lexical: the access must sit between Lock and Unlock of
// some mutex in the same body (lockdiscipline.go's interval model).
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "state reached from more than one goroutine must be mutex-guarded or atomic",
	Run:  runSharedState,
}

// sharedAnalysis is the module-wide result, computed once per Run and
// cached on the interprocedural state; each package pass then emits only
// its own findings.
type sharedAnalysis struct {
	findings map[*Package][]sharedFinding
}

type sharedFinding struct {
	pos token.Pos
	msg string
}

// litScan is the module-wide scan feeding the concurrent-body fixpoint.
type litScan struct {
	// pkgOf maps each literal to its package; parent maps nested literals
	// to their innermost enclosing literal (nil = declared at function
	// level); declOf maps literals to their enclosing named function.
	pkgOf  map[*ast.FuncLit]*Package
	parent map[*ast.FuncLit]*ast.FuncLit
	declOf map[*ast.FuncLit]*types.Func
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

func runSharedState(pass *Pass) {
	ip := pass.secrets.interp
	if ip == nil {
		return
	}
	if ip.shared == nil {
		ip.shared = analyzeSharedState(ip)
	}
	for _, f := range ip.shared.findings[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

func analyzeSharedState(ip *interproc) *sharedAnalysis {
	cc := ip.concurrency()
	scan, conc, concFuncs := cc.scan, cc.conc, cc.concFuncs

	// Order concurrent bodies deterministically by position.
	type body struct {
		pkg  *Package
		node ast.Node       // *ast.FuncLit or *ast.FuncDecl body owner
		blk  *ast.BlockStmt // the body to scan
		// globalsOnly: named functions launched with `go f()` have no
		// captures; only package variables are shared.
		globalsOnly bool
	}
	var bodies []body
	for lit := range conc {
		bodies = append(bodies, body{pkg: scan.pkgOf[lit], node: lit, blk: lit.Body})
	}
	for fn := range concFuncs {
		if decl := ip.graph.decls[fn]; decl != nil {
			bodies = append(bodies, body{pkg: ip.graph.pkgOf[fn], node: decl, blk: decl.Body, globalsOnly: true})
		}
	}
	sort.Slice(bodies, func(i, j int) bool { return bodies[i].blk.Pos() < bodies[j].blk.Pos() })

	type access struct {
		body    int
		pkg     *Package
		obj     types.Object
		pos     token.Pos
		write   bool
		guarded bool
	}
	var accesses []access
	written := make(map[types.Object]bool)

	for bi, b := range bodies {
		info := b.pkg.Info
		intervals := lockIntervals(info, b.blk)
		guarded := func(pos token.Pos) bool {
			for _, iv := range intervals {
				if iv.contains(pos) {
					return true
				}
			}
			return false
		}
		shared := func(obj types.Object) bool {
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				return false
			}
			if sharedExemptType(v.Type()) {
				return false
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return true // package-level variable
			}
			if b.globalsOnly {
				return false
			}
			// Captured: declared outside this literal but used inside it.
			return v.Pos() < b.blk.Pos() || v.Pos() > b.blk.End()
		}
		writeRoots := make(map[*ast.Ident]bool)
		inspectSkipFuncLits(b.blk, func(n ast.Node) {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			default:
				return
			}
			for _, t := range targets {
				id, element := writeRoot(info, t)
				if id == nil {
					continue
				}
				writeRoots[id] = true
				if element {
					continue // out[i] = v: each worker owns its index
				}
				obj := info.Uses[id]
				if obj == nil {
					obj = info.Defs[id]
				}
				if obj == nil || !shared(obj) {
					continue
				}
				written[obj] = true
				accesses = append(accesses, access{
					body: bi, pkg: b.pkg, obj: obj, pos: id.Pos(),
					write: true, guarded: guarded(id.Pos()),
				})
			}
		})
		inspectSkipFuncLits(b.blk, func(n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || writeRoots[id] {
				return
			}
			obj := info.Uses[id]
			if obj == nil || !shared(obj) {
				return
			}
			if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
				return // calling a captured func value is a read-only use
			}
			accesses = append(accesses, access{
				body: bi, pkg: b.pkg, obj: obj, pos: id.Pos(),
				guarded: guarded(id.Pos()),
			})
		})
	}

	res := &sharedAnalysis{findings: make(map[*Package][]sharedFinding)}
	for _, a := range accesses {
		if a.guarded {
			continue
		}
		if a.write {
			res.findings[a.pkg] = append(res.findings[a.pkg], sharedFinding{
				pos: a.pos,
				msg: "write to " + a.obj.Name() + ", which is reachable from more than one goroutine, is not mutex-guarded; hold one mutex around every access or use sync/atomic",
			})
		} else if written[a.obj] {
			res.findings[a.pkg] = append(res.findings[a.pkg], sharedFinding{
				pos: a.pos,
				msg: "read of " + a.obj.Name() + ", which another goroutine writes, is not mutex-guarded; hold the writer's mutex around every access path",
			})
		}
	}
	return res
}

// scanLiterals walks every module function once, recording function
// literals, go statements, bindings of literals to function-typed
// objects, hotness hand-offs at call sites, and mentions of function-typed
// objects inside literals.
func scanLiterals(ip *interproc) *litScan {
	s := &litScan{
		pkgOf:        make(map[*ast.FuncLit]*Package),
		parent:       make(map[*ast.FuncLit]*ast.FuncLit),
		declOf:       make(map[*ast.FuncLit]*types.Func),
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
	for fn, decl := range ip.graph.decls {
		var objs []types.Object
		if decl.Type.Params != nil {
			info := ip.graph.pkgOf[fn].Info
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

	for fn, decl := range ip.graph.decls {
		pkg := ip.graph.pkgOf[fn]
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
						s.declOf[m] = fn
						walk(m.Body, m)
						return false
					}
				case *ast.GoStmt:
					switch fun := ast.Unparen(m.Call.Fun).(type) {
					case *ast.FuncLit:
						s.goLits[fun] = true
					default:
						if obj := funcObj(info, m.Call.Fun); obj != nil {
							if callee, ok := obj.(*types.Func); ok {
								if _, inModule := ip.graph.decls[callee]; inModule {
									s.goFuncs[callee] = true
								}
							} else {
								s.goVars[obj] = true
							}
						}
						_ = fun
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

// propagateConcurrency runs the hot-object/concurrent-literal fixpoint
// described on SharedState.
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

// writeRoot resolves an assignment target to its root identifier, also
// reporting whether the write lands in a slice or array element (the
// partitioned parallel-for idiom: workers writing out[i] each own index
// i, so element writes are exempt from guarding; map writes are not).
func writeRoot(info *types.Info, e ast.Expr) (*ast.Ident, bool) {
	element := false
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t, element
		case *ast.IndexExpr:
			if tv, ok := info.Types[t.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array:
					element = true
				}
			}
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}

// sharedExemptType reports types whose sharing is the intended usage:
// channels and the sync / sync/atomic primitives.
func sharedExemptType(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if pkg := n.Obj().Pkg(); pkg != nil {
			if path := pkg.Path(); path == "sync" || path == "sync/atomic" {
				return true
			}
		}
	}
	return false
}

// A lockInterval is one Lock..release span inside one function body.
type lockInterval struct {
	mu      string // render of the mutex expression ("r.mu")
	read    bool   // RLock/RUnlock pair
	lockPos token.Pos
	endPos  token.Pos // matching Unlock, or body end when deferred/leaked
	closed  bool      // a matching release was seen (deferred or direct)
}

// contains reports whether pos falls strictly inside the held span.
func (iv *lockInterval) contains(pos token.Pos) bool {
	return pos > iv.lockPos && pos < iv.endPos
}

// mutexMethodCall classifies call as a Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex and returns the mutex expression's render.
func mutexMethodCall(info *types.Info, call *ast.CallExpr) (mu string, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	selection, isSel := info.Selections[sel]
	if !isSel {
		return "", "", false
	}
	if !isSyncType(selection.Recv(), "Mutex", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// lockIntervals computes the Lock..release spans of one body (nested
// literals excluded). Unmatched Locks yield open intervals ending at the
// body's end with closed=false.
func lockIntervals(info *types.Info, body *ast.BlockStmt) []*lockInterval {
	var intervals []*lockInterval
	open := func(mu string, read bool) *lockInterval {
		for i := len(intervals) - 1; i >= 0; i-- {
			iv := intervals[i]
			if !iv.closed && iv.mu == mu && iv.read == read {
				return iv
			}
		}
		return nil
	}
	inspectSkipFuncLits(body, func(n ast.Node) {
		var call *ast.CallExpr
		deferred := false
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		default:
			return
		}
		if call == nil {
			return
		}
		mu, method, ok := mutexMethodCall(info, call)
		if !ok {
			return
		}
		switch method {
		case "Lock", "RLock":
			if !deferred { // "defer mu.Lock()" is nonsense; ignore
				intervals = append(intervals, &lockInterval{
					mu:      mu,
					read:    method == "RLock",
					lockPos: call.Pos(),
					endPos:  body.End(),
				})
			}
		case "Unlock", "RUnlock":
			iv := open(mu, method == "RUnlock")
			if iv == nil {
				return
			}
			iv.closed = true
			if !deferred {
				iv.endPos = call.Pos()
			}
		}
	})
	return intervals
}
