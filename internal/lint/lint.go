// Package lint is secmemlint's analysis engine: a small, stdlib-only
// static-analysis framework (go/parser + go/ast + go/types, no external
// modules) with domain-specific analyzers that machine-check the crypto
// invariants this repository's security argument rests on:
//
//   - maccompare: MAC/tag comparisons must be constant time (GCM tag check).
//   - seeddiscipline: counter-mode seeds are built only by the canonical
//     builder, so pads are never reused (Section 3 seed uniqueness).
//   - randhygiene: math/rand stays inside simulation packages, away from
//     crypto and core paths.
//   - verifydrop: results of Verify/Authenticate/Open-shaped calls must not
//     be discarded (Section 4.3 verify-before-trust).
//   - sliceretain: crypto constructors/setters must not alias caller []byte.
//   - secretflow: values derived from "//secmemlint:secret" sources must not
//     reach fmt/log/error formatting or obsv metric/trace sinks.
//   - cttiming: no branch condition or memory index may depend on secret
//     data (the constant-time discipline, checked statically).
//   - taintescape: exported APIs must not return or store un-copied aliases
//     of secret state.
//   - determinism: no map-iteration order or cross-goroutine float
//     accumulation may reach simulation outputs.
//   - goroutinelife: every go statement carries a provable termination
//     signal, and spawning in a loop must be bounded (worker pools).
//
// secretflow, cttiming, and taintescape ride on the local taint pass in
// taint.go, seeded by "//secmemlint:secret" annotations on the real key,
// pad, and plaintext state across aescipher, gcmmode, gf128, sha1sum, and
// core. The pass analyzes one function at a time; the same annotations on
// the functions of each secret chain declare what crosses a call. The
// concurrency analyzers (determinism, goroutinelife) guard the program's
// one concurrent piece: the harness.parallelDo fan-out that runs a
// campaign's simulations on worker goroutines. The simulator itself is
// serial, and go test -race guards the fan-out's shared state. Every
// analyzer keeps its place by catching a seeded bug that go test, go test
// -race and the other checks miss (DESIGN.md §14).
//
// The compiler cannot see any of these properties; the analyzers keep all
// packages honest through refactors. cmd/secmemlint is the CLI driver and
// lint_test.go pins the real repository to zero findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable/disable flags,
	// and suppression comments.
	Name string
	// Doc is a one-line description shown by secmemlint -list.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Pass is one (analyzer, package) execution.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
	// secrets is the module-wide "//secmemlint:secret" annotation index,
	// shared by every pass of one run so cross-package secrets (a gf128
	// field read from gcmmode) resolve consistently.
	secrets *SecretIndex
	// module indexes the module's function declarations, shared by every
	// pass of one run.
	module *moduleIndex
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MacCompare,
		SeedDiscipline,
		RandHygiene,
		VerifyDrop,
		SliceRetain,
		SecretFlow,
		CTTiming,
		TaintEscape,
		Determinism,
		GoroutineLife,
	}
}

// RunScoped analyzes context — which should be every package of the module,
// from one Load call — but reports findings only for the packages in
// selected, dropping those that "//secmemlint:ignore" comments silence and
// sorting the rest by position. Passing the same packages twice runs over
// all of them. The split keeps a scoped run as precise as a full one: the
// secret annotations of out-of-scope packages (a gf128 field read from
// gcmmode, a "return" annotation on a callee) and the declarations the
// concurrency analyzers follow into other packages must be visible while
// analyzing a scoped selection.
func RunScoped(selected, context []*Package, analyzers []*Analyzer) []Diagnostic {
	ignores := collectModuleIgnores(selected)
	var diags []Diagnostic
	for _, d := range runUnsuppressed(selected, context, analyzers) {
		if !ignores.suppresses(d) {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// runUnsuppressed runs analyzers over selected, with context as in
// RunScoped, and returns every finding, suppressed or not.
func runUnsuppressed(selected, context []*Package, analyzers []*Analyzer) []Diagnostic {
	secrets := collectSecrets(context)
	module := indexModule(context)
	var diags []Diagnostic
	for _, pkg := range selected {
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags, secrets: secrets, module: module})
		}
	}
	return diags
}

// ignoreSet maps file -> line -> analyzer names silenced on that line. A
// suppression comment has the form
//
//	//secmemlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A trailing comment (code precedes it on the line) suppresses findings on
// its own line and nothing else; a standalone comment line suppresses
// findings on the line directly below it. "all" silences every analyzer.
// The reason is mandatory so intent is documented at the suppression site.
type ignoreSet map[string]map[int][]string

const ignorePrefix = "secmemlint:ignore"

func collectIgnores(pkg *Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		code := codeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					continue // no reason given: suppression does not apply
				}
				pos := pkg.Fset.Position(c.Pos())
				target := pos.Line
				if !code[pos.Line] {
					// Standalone comment line: it guards the statement
					// directly below, where the finding will be reported.
					target = pos.Line + 1
				}
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					set[pos.Filename] = byLine
				}
				byLine[target] = append(byLine[target], strings.Split(fields[0], ",")...)
			}
		}
	}
	return set
}

// codeLines reports which lines of f hold non-comment tokens, so a
// suppression comment can be classified as trailing (shares a line with
// code) or standalone (alone on its line).
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}

// collectModuleIgnores merges every package's suppression set into one
// module-wide table (keys are absolute filenames, so the merge is safe).
func collectModuleIgnores(pkgs []*Package) ignoreSet {
	merged := make(ignoreSet)
	for _, pkg := range pkgs {
		for file, byLine := range collectIgnores(pkg) {
			dst := merged[file]
			if dst == nil {
				dst = make(map[int][]string)
				merged[file] = dst
			}
			for line, names := range byLine {
				dst[line] = append(dst[line], names...)
			}
		}
	}
	return merged
}

// A Suppression is one "//secmemlint:ignore" comment in the tree, with its
// mandatory reason — the audit view behind `make lint-fix-audit`.
type Suppression struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
}

// Suppressions lists every well-formed suppression comment in pkgs, sorted
// by file and line, so the allowlisted exemption set stays reviewable.
func Suppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	seen := make(map[string]map[int]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
					if len(fields) < 2 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if seen[pos.Filename][pos.Line] {
						continue // files shared between packages (none today)
					}
					if seen[pos.Filename] == nil {
						seen[pos.Filename] = make(map[int]bool)
					}
					seen[pos.Filename][pos.Line] = true
					out = append(out, Suppression{
						File:      pos.Filename,
						Line:      pos.Line,
						Analyzers: strings.Split(fields[0], ","),
						Reason:    strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

func (s ignoreSet) suppresses(d Diagnostic) bool {
	byLine := s[d.File]
	if byLine == nil {
		return false
	}
	for _, name := range byLine[d.Line] {
		if name == d.Analyzer || name == "all" {
			return true
		}
	}
	return false
}

// --- shared expression helpers used by several analyzers -------------------

// coreName digs out the identifier a value expression is "about": the
// receiver-most name of selectors, the array name of index/slice
// expressions, and the callee name of calls. It is the textual handle the
// name-based heuristics match against.
func coreName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return coreName(e.X)
	case *ast.SliceExpr:
		return coreName(e.X)
	case *ast.CallExpr:
		return coreName(e.Fun)
	case *ast.ParenExpr:
		return coreName(e.X)
	case *ast.StarExpr:
		return coreName(e.X)
	case *ast.UnaryExpr:
		return coreName(e.X)
	}
	return ""
}

// calleeName returns the final name of a call target ("Verify" for both
// Verify(...) and x.y.Verify(...)), or "" when it has no name.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isSyncType reports whether t (or *t) is one of the named types from
// package sync.
func isSyncType(t types.Type, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// inspectSkipFuncLits walks body's own statements, invoking f for every
// node including FuncLit nodes themselves but not their contents.
func inspectSkipFuncLits(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			f(lit)
			return false
		}
		f(n)
		return true
	})
}
