package lint

import (
	"go/ast"
	"go/types"
)

// GlobalMut bans mutable package-level state in the simulator-core
// packages. harness.parallelDo runs a campaign's simulations on worker
// goroutines in one process; any package-level variable in those
// packages is state silently shared by every machine — a data race at
// worst and a cross-run dependence at best. Constants, error sentinels
// (immutable by convention), and the blank identifier are fine; anything
// else must live on a struct the caller owns.
//
// The package set is sim, core, engine, cache, counterstore, merkle.
// Packages outside the set (harness, obsv, lint itself) may keep globals —
// they run on the coordinator, not inside a simulated machine.
var GlobalMut = &Analyzer{
	Name: "globalmut",
	Doc:  "no mutable package-level state in the simulator-core packages",
	Run:  runGlobalMut,
}

// globalMutPackages are the final path segments of the simulator-core
// packages.
var globalMutPackages = []string{"sim", "core", "engine", "cache", "counterstore", "merkle"}

func runGlobalMut(pass *Pass) {
	match := false
	for _, seg := range globalMutPackages {
		if pass.Pkg.Segment(seg) {
			match = true
			break
		}
	}
	if !match {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok.String() != "var" {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					if isErrorSentinel(obj.Type()) {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level variable %s is shared by every machine a campaign runs in parallel; move it onto a struct the caller instantiates",
						name.Name)
				}
			}
		}
	}
}

// isErrorSentinel reports whether t is the error interface — `var ErrX =
// errors.New(...)` sentinels are assigned once at init and compared by
// identity, the one package-level-var idiom the core packages keep.
func isErrorSentinel(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return it.NumMethods() == 1 && it.Method(0).Name() == "Error"
}
