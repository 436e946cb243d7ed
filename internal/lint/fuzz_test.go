package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The fuzz targets below harden the annotation grammar — the one place
// the analyzers consume free-form user text. Each embeds the fuzz input
// into a source file, parses it, and runs the real collectors: the grammar
// must never panic, and malformed annotations must never register (a bare
// ignore silently eating findings would be a security-relevant bug).

func fuzzPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
	if err != nil {
		t.Skip("input does not parse")
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Error: func(error) {}} // best-effort, like the loader
	tpkg, _ := conf.Check("fuzz", fset, []*ast.File{f}, info)
	return &Package{Path: "fuzz", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func FuzzCollectIgnores(f *testing.F) {
	f.Add("//secmemlint:ignore cttiming models combinational hardware\nvar x int")
	f.Add("var x int //secmemlint:ignore secretflow demo output is public")
	f.Add("//secmemlint:ignore maccompare")                // no reason: must not register
	f.Add("//secmemlint:ignore a,b reason words")          // multi-analyzer
	f.Add("// secmemlint:ignore\tcttiming\ttabbed reason") // whitespace forms
	f.Add("//secmemlint:ignorecttiming glued prefix")
	f.Fuzz(func(t *testing.T, body string) {
		pkg := fuzzPackage(t, "package p\n"+body+"\n")
		set := collectIgnores(pkg)
		for file, byLine := range set {
			if file == "" {
				t.Error("suppression registered with empty filename")
			}
			for line, names := range byLine {
				if line <= 0 {
					t.Errorf("suppression registered on impossible line %d", line)
				}
				if len(names) == 0 {
					t.Errorf("%s:%d: suppression registered with no analyzer names", file, line)
				}
			}
		}
		// Re-scan the source: every registered suppression must trace back
		// to a comment that carried both an analyzer list and a reason.
		for _, byLine := range set {
			total := 0
			for _, names := range byLine {
				total += len(names)
			}
			if total > 0 && !ignoreWithReasonExists(pkg) {
				t.Error("suppression registered but no well-formed ignore comment exists")
			}
		}
	})
}

// ignoreWithReasonExists reports whether any comment in pkg is a
// well-formed ignore (analyzer list plus at least one reason word).
func ignoreWithReasonExists(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				if len(strings.Fields(strings.TrimPrefix(text, ignorePrefix))) >= 2 {
					return true
				}
			}
		}
	}
	return false
}

func FuzzSecretAnnotation(f *testing.F) {
	f.Add("type v struct {\n\t//secmemlint:secret — the key\n\tkey []byte\n}")
	f.Add("//secmemlint:secret key return\nfunc g(key []byte) []byte { return key }")
	f.Add("var k = 1 //secmemlint:secret")
	f.Add("//secmemlint:secret name1 name2 name3\nfunc h(name1, name2 int) int { return name1 }")
	f.Add("//secmemlint:secret\n//secmemlint:secret twice\nvar y int")
	f.Add("//secmemlint:secret out:dst\nfunc o(dst []byte) { copy(dst, \"k\") }\nfunc u() { b := make([]byte, 1); o(b); panic(b) }")
	f.Add("//secmemlint:secret out: out:missing out:out:dst\nfunc o(dst, src []byte) {}")
	f.Fuzz(func(t *testing.T, body string) {
		pkg := fuzzPackage(t, "package p\n"+body+"\n")
		idx := collectSecrets([]*Package{pkg})
		for obj := range idx.objs {
			if obj == nil {
				t.Error("nil object registered as secret")
			}
		}
		for fn, outs := range idx.outs {
			for _, i := range outs {
				if i < 0 || i >= fn.Type().(*types.Signature).Params().Len() {
					t.Errorf("%s: out-parameter index %d out of range", fn.Name(), i)
				}
			}
		}
		// The index must be usable downstream: the taint analyzers over the
		// fuzzed package must not panic either.
		pkgs := []*Package{pkg}
		RunScoped(pkgs, pkgs, []*Analyzer{SecretFlow, CTTiming, TaintEscape})
	})
}
