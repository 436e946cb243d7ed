package lint

import (
	"go/ast"
)

// CTTiming machine-checks the constant-time discipline that maccompare only
// spot-checks at comparison sites: no control flow and no memory indexing
// may depend on secret data. Data-dependent branches leak through
// execution-time variation (Kocher-style timing attacks) and
// secret-indexed table lookups leak through the cache (the classic AES
// S-box channel) — the two mechanisms tools like ctgrind and dudect hunt
// dynamically, checked here statically on every CI run.
//
// The sanctioned exits are (a) reducing a secret to a publishable decision
// via crypto/subtle (the taint engine declassifies those results) and (b)
// an explicit "//secmemlint:ignore cttiming <reason>" at sites that model
// combinational hardware, where software timing is out of scope. Both keep
// the allowlist visible in the source.
const ctTimingName = "cttiming"

var CTTiming = &Analyzer{
	Name: ctTimingName,
	Doc:  "no branch condition or memory index may depend on secret data",
	Run:  runCTTiming,
}

func runCTTiming(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctx := pass.secrets.analyze(pass, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if ctx.Tainted(n.Cond) {
						pass.Reportf(n.Cond.Pos(),
							"if condition depends on secret data; branching on secrets leaks through timing (constant-time discipline)")
					}
				case *ast.SwitchStmt:
					if n.Tag != nil && ctx.Tainted(n.Tag) {
						pass.Reportf(n.Tag.Pos(),
							"switch tag depends on secret data; branching on secrets leaks through timing (constant-time discipline)")
					}
				case *ast.ForStmt:
					if n.Cond != nil && ctx.Tainted(n.Cond) {
						pass.Reportf(n.Cond.Pos(),
							"loop condition depends on secret data; secret-dependent trip counts leak through timing")
					}
				case *ast.IndexExpr:
					// Only value indexing: generic instantiations are
					// IndexExprs over types.
					if tv, ok := pass.Pkg.Info.Types[n.X]; ok && tv.IsValue() && ctx.Tainted(n.Index) {
						pass.Reportf(n.Index.Pos(),
							"memory index depends on secret data; secret-indexed lookups leak through the cache (AES S-box channel)")
					}
				case *ast.SliceExpr:
					for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
						if bound != nil && ctx.Tainted(bound) {
							pass.Reportf(bound.Pos(),
								"slice bound depends on secret data; secret-dependent extents leak through timing and access patterns")
						}
					}
				}
				return true
			})
		}
	}
}
