package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExportsHaveNonTestCallers fails on an exported name under internal/
// that no non-test code references: API that only its own tests reach is
// code no figure needs. Load skips test files, so a reference counts only
// if the simulator, a CLI, an example or the benchmark in bench/ makes it.
// bench/ is a module of its own whose tests Load does not see either, so a
// name only they call needs an allowlist entry. Methods that satisfy an
// interface (String, MarshalJSON, Next, ...) are exempt, since a dynamic
// call reaches them. exportAllowlist names the rest that stay, each with
// its reason. Exported struct fields that nothing reads fail it too (see
// checkFieldsRead).
func TestExportsHaveNonTestCallers(t *testing.T) {
	pkgs := loadRepo(t)
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if pkg.Info.Defs[id] == nil {
				used[origin(obj)] = true
			}
		}
	}
	ifaces := interfacesOf(pkgs)
	stale := maps.Clone(exportAllowlist)
	var unused []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path, "/internal/") {
			continue
		}
		for _, obj := range exportedDecls(pkg) {
			name := qualifiedName(obj)
			if used[obj] || satisfiesInterface(obj, ifaces) {
				continue
			}
			if _, ok := stale[name]; ok {
				delete(stale, name)
				continue
			}
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests reference it: delete it, or allowlist it with a reason", name)
	}
	var left []string
	for name := range stale {
		left = append(left, name)
	}
	sort.Strings(left)
	for _, name := range left {
		t.Errorf("allowlist entry %s names no exported declaration that lacks a non-test caller", name)
	}
	checkFieldsRead(t, pkgs)
}

// checkFieldsRead fails on an exported struct field under internal/ that no
// non-test code reads. A read is any selector of the field that is not the
// direct target of =, :=, ++ or --, so a field that is only ever set is
// state nothing uses. Embedded fields are exempt, and so are fields with a
// json tag, which encoding/json reads. fieldAllowlist names the struct
// types whose fields stay unread, each with its reason.
func checkFieldsRead(t *testing.T, pkgs []*Package) {
	read := fieldReads(pkgs)
	stale := maps.Clone(fieldAllowlist)
	var unread []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path, "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typeName := pkg.Types.Name() + "." + tn.Name()
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || read[f] {
					continue
				}
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					continue
				}
				if _, ok := fieldAllowlist[typeName]; ok {
					delete(stale, typeName)
					continue
				}
				unread = append(unread, typeName+"."+f.Name())
			}
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("field %s is exported but no non-test code reads it: delete it, or allowlist its type with a reason", name)
	}
	var left []string
	for name := range stale {
		left = append(left, name)
	}
	sort.Strings(left)
	for _, name := range left {
		t.Errorf("field allowlist entry %s names no type with an exported field that lacks a non-test read", name)
	}
}

// fieldReads collects every struct field that a selector in non-test code
// reads, that is, every field selected anywhere except as the direct target
// of an assignment or an increment.
func fieldReads(pkgs []*Package) map[*types.Var]bool {
	read := make(map[*types.Var]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			written := make(map[*ast.SelectorExpr]bool)
			target := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
			// Inspect visits a statement before its operands, so a
			// target is marked before its selector is reached.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, lhs := range n.Lhs {
							target(lhs)
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.SelectorExpr:
					if sel := pkg.Info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}
	return read
}

// fieldAllowlist names the struct types whose exported fields stay without
// a non-test read, with the reason. cpu.Result, which bench/ hashes too,
// needs no entry while non-test code reads each of its fields.
var fieldAllowlist = map[string]string{
	"core.Stats":         "bench/ hashes it with %+v",
	"cache.Stats":        "bench/ hashes it with %+v",
	"counterstore.Stats": "bench/ hashes it with %+v",
	"core.Tamper":        "tests assert which block was flagged",
}

// exportAllowlist names the exported declarations that stay without a
// non-test caller, as "pkg.Name" or "pkg.Type.Method", with the reason.
var exportAllowlist = map[string]string{
	"aescipher.Cipher.EncryptOracle": "the straight-from-FIPS-197 oracle the table-driven Encrypt is tested against",
	"gf128.GHASH":                    "the bit-serial GHASH oracle of GHASHTable8",
	"gcmmode.NewAEAD":                "the full GCM the NIST vectors and crypto/cipher pin",
	"gcmmode.AEAD.Seal":              "the full GCM the NIST vectors and crypto/cipher pin",
	"gcmmode.AEAD.Open":              "the full GCM the NIST vectors and crypto/cipher pin",
	"gcmmode.PadGen.Verify":          "the tag check the NIST vectors pin",
	"sha1sum.Sum20":                  "the full digest crypto/sha1 pins; the simulator uses its truncations",
	"dram.Attacker.Overwrite":        "an attacker operation the fault-injection tests drive",
	"dram.Attacker.Corrupt":          "an attacker operation the fault-injection tests drive",
	"core.Controller.Tampers":        "tests assert which block was flagged",
	"counterstore.NoOverflow":        "names the zero OverflowKind",
	"reenc.File.StorageBits":         "the only executable check of the paper's under-150-bytes RSR claim",
}

// origin maps an instantiated generic function or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// exportedDecls lists the exported package-level names of pkg and the
// exported methods of its named types. Struct fields are not listed.
func exportedDecls(pkg *Package) []types.Object {
	var out []types.Object
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := pkg.Info.Defs[d.Name]; obj != nil && obj.Exported() && exportedRecv(obj) {
					out = append(out, obj)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						if obj := pkg.Info.Defs[id]; obj != nil && obj.Exported() {
							out = append(out, obj)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a function is package-level or a method of
// an exported type: an unexported type's methods are outside the API.
func exportedRecv(obj types.Object) bool {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	n := namedOf(recv.Type())
	return n != nil && n.Obj().Exported()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// qualifiedName renders obj as "pkg.Name" or "pkg.Type.Method".
func qualifiedName(obj types.Object) string {
	pkg := obj.Pkg().Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return pkg + "." + namedOf(recv.Type()).Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// interfacesOf collects every named interface the loaded packages declare,
// the exported ones of the packages they import, transitively, and error.
// An unexported standard-library interface (encoding/json's isZeroer) does
// not count: nothing here reaches it.
func interfacesOf(pkgs []*Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	local := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		local[pkg.Types] = true
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && (local[p] || tn.Exported()) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return ifaces
}

// satisfiesInterface reports whether obj is a method its receiver type
// needs to implement an interface that declares a method of that name.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	for _, it := range ifaces {
		if sel, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); sel == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
