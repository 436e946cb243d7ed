package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLife is the leak gate for the parallel simulator core: every
// `go` statement must carry a provable termination signal, and spawning
// inside an unbounded loop must go through a bounded worker pool. A
// goroutine body proves termination by any of:
//
//   - `defer wg.Done()` on a sync.WaitGroup (the join is the signal);
//   - ranging over a channel (terminates when the producer closes it);
//   - a select with a comm clause that returns (the stop-channel idiom,
//     including `case <-ctx.Done(): return`);
//   - a direct blocking receive from a Done()-style channel.
//
// A `go f(...)` launch of a named module function is checked against the
// same rules applied to f's body; a named callee whose signature accepts
// a channel or context.Context parameter is also accepted (the signal is
// threaded in; its use is f's responsibility). External callees cannot be
// proven and are flagged — wrap them in a literal that owns the signal,
// or suppress with a reason for genuinely process-lifetime servers.
//
// The loop rule: a `go` statement inside `for {}` or a condition-only
// `for cond {}` spawns an unbounded number of goroutines; counted loops
// and ranges over data are bounded per call and pass, while ranging a
// channel and spawning per message is flagged (drain the channel with a
// fixed pool of workers instead — the harness.parallelFor shape).
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "every go statement needs a provable termination signal; no unbounded spawn loops",
	Run:  runGoroutineLife,
}

func runGoroutineLife(pass *Pass) {
	ip := pass.secrets.interp
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			walkGoStmts(fn.Body, nil, func(g *ast.GoStmt, loop ast.Stmt) {
				checkGoStmt(pass, ip, info, g, loop)
			})
		}
	}
}

// walkGoStmts visits every go statement under body with its innermost
// enclosing loop (crossing function-literal boundaries resets the loop
// context: a loop outside a literal does not multiply spawns inside it).
func walkGoStmts(n ast.Node, loop ast.Stmt, visit func(*ast.GoStmt, ast.Stmt)) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		walkGoStmts(n.Body, nil, visit)
		return
	case *ast.ForStmt:
		walkGoStmts(n.Body, n, visit)
		return
	case *ast.RangeStmt:
		walkGoStmts(n.Body, n, visit)
		return
	case *ast.GoStmt:
		visit(n, loop)
		// The launched body may itself spawn; its loops are its own.
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			walkGoStmts(lit.Body, nil, visit)
		}
		return
	}
	// Generic descent preserving the loop context.
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt, *ast.GoStmt:
			if m != n {
				walkGoStmts(m, loop, visit)
				return false
			}
		}
		return true
	})
}

func checkGoStmt(pass *Pass, ip *interproc, info *types.Info, g *ast.GoStmt, loop ast.Stmt) {
	// Loop-boundedness first: it is a property of the spawn site.
	switch l := loop.(type) {
	case *ast.ForStmt:
		if l.Cond == nil {
			pass.Reportf(g.Pos(),
				"goroutine spawned inside an infinite for loop creates unboundedly many goroutines; use a fixed-size worker pool draining a channel")
		} else if l.Init == nil && l.Post == nil {
			pass.Reportf(g.Pos(),
				"goroutine spawned inside a condition-only for loop is not provably bounded; use a counted loop over a fixed worker count")
		}
	case *ast.RangeStmt:
		if tv, ok := info.Types[l.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				pass.Reportf(g.Pos(),
					"goroutine spawned per channel message is unbounded under load; drain the channel with a fixed pool of workers")
			}
		}
	}

	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if !terminationSignal(info, fun.Body) {
			pass.Reportf(g.Pos(),
				"goroutine body has no provable termination signal (defer wg.Done, channel range, stop-channel select, or Done-channel receive); a leaked goroutine outlives the run and holds its captures live")
		}
	default:
		callee, _ := calleeObject(info, g.Call).(*types.Func)
		if callee == nil {
			pass.Reportf(g.Pos(),
				"goroutine launches through a function value whose termination cannot be proven; launch a literal that owns the stop signal")
			return
		}
		if sigHasStopParam(callee) {
			return
		}
		if decl, ok := ip.graph.decls[callee]; ok {
			if terminationSignal(ip.graph.pkgOf[callee].Info, decl.Body) {
				return
			}
			pass.Reportf(g.Pos(),
				"goroutine %s has no provable termination signal in its body and no channel/context parameter; thread a stop signal in",
				callee.Name())
			return
		}
		pass.Reportf(g.Pos(),
			"goroutine %s is declared outside the module and takes no channel/context parameter, so its termination cannot be proven; wrap it in a literal that owns the stop signal",
			callee.Name())
	}
}

// sigHasStopParam reports whether a callee's signature threads in a
// termination signal: a channel-typed or context.Context parameter.
func sigHasStopParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			return true
		}
		if n, ok := t.(*types.Named); ok {
			if pkg := n.Obj().Pkg(); pkg != nil && pkg.Path() == "context" && n.Obj().Name() == "Context" {
				return true
			}
		}
	}
	return false
}

// terminationSignal reports whether a goroutine body carries one of the
// accepted termination proofs. Nested literals are the spawned
// goroutine's own concern and are skipped.
func terminationSignal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	inspectSkipFuncLits(body, func(n ast.Node) {
		if found {
			return
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if selection, ok := info.Selections[sel]; ok && isSyncType(selection.Recv(), "WaitGroup") {
					found = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, stmt := range comm.Body {
					exits := false
					ast.Inspect(stmt, func(m ast.Node) bool {
						if _, ok := m.(*ast.ReturnStmt); ok {
							exits = true
						}
						return !exits
					})
					if exits {
						found = true
					}
				}
			}
		case *ast.UnaryExpr:
			// <-ctx.Done() (or any Done()-channel receive) as a blocker.
			if n.Op != token.ARROW {
				return
			}
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && calleeName(call) == "Done" {
				found = true
			}
		}
	})
	return found
}
