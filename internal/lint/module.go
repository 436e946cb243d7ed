package lint

import (
	"go/ast"
	"go/types"
)

// moduleIndex is the module-wide state every pass of one Run shares: the
// declaration of each function the module defines, and the concurrency
// analyzers' module-wide results, computed on first demand. sharedstate,
// determinism and goroutinelife follow a launched or called function into
// its body, possibly in another package; the taint engine uses the index to
// tell a module callee, whose effects its annotations declare, from a call
// that leaves the module.
type moduleIndex struct {
	// decls maps each module function object to its declaration.
	decls map[*types.Func]*ast.FuncDecl
	// pkgOf maps each module function to the package whose type info
	// resolves its body.
	pkgOf map[*types.Func]*Package
	// shared caches sharedstate's findings.
	shared *sharedAnalysis
	// conc caches the concurrent-body fixpoint (scanLiterals +
	// propagateConcurrency) shared by sharedstate and determinism.
	conc *concurrency
}

// indexModule records every function declaration with a body in pkgs.
func indexModule(pkgs []*Package) *moduleIndex {
	m := &moduleIndex{
		decls: make(map[*types.Func]*ast.FuncDecl),
		pkgOf: make(map[*types.Func]*Package),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					m.decls[obj] = fn
					m.pkgOf[obj] = pkg
				}
			}
		}
	}
	return m
}

// concurrency bundles the module-wide concurrent-body discovery so every
// analyzer that needs "which bodies may run on another goroutine" pays
// for it once per Run.
type concurrency struct {
	scan      *litScan
	conc      map[*ast.FuncLit]bool
	concFuncs map[*types.Func]bool
}

func (m *moduleIndex) concurrency() *concurrency {
	if m.conc == nil {
		scan := scanLiterals(m)
		c, cf := propagateConcurrency(scan)
		m.conc = &concurrency{scan: scan, conc: c, concFuncs: cf}
	}
	return m.conc
}
