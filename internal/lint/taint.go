package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// This file is the taint/dataflow engine underneath the secretflow,
// cttiming, and taintescape analyzers. Secrecy is a property the Go type
// system cannot express: a []byte holding an AES key schedule and a []byte
// holding a public trace label have the same type. The engine adds that
// missing bit, seeded by explicit "//secmemlint:secret" annotations and
// propagated through assignments, composite literals, indexing/slicing,
// arithmetic and XOR, and calls.
//
// Annotation grammar (the sources of taint):
//
//	//secmemlint:secret [prose...]
//	    on a struct field (doc or trailing comment), a var declaration, or
//	    the line directly above either: the declared names are secret.
//	    Trailing prose documents what the secret is.
//
//	//secmemlint:secret name[ name...]
//	    in a function's doc comment: each name is a parameter or receiver
//	    name to treat as secret inside the body; the keyword "return" marks
//	    the function's results as secret at every call site; "out:name"
//	    marks what a caller passes for parameter name as secret after every
//	    call (an out-parameter the function fills with secret data).
//
// Deliberate exceptions (the allowlisted set) use the ordinary
// "//secmemlint:ignore <analyzer> <reason>" mechanism at the finding site,
// so every place the discipline is waived carries its justification.
//
// The pass is local: it analyzes one function body at a time and never
// looks inside a callee. What crosses a function boundary is what the
// annotations declare — a secret parameter or receiver, a secret result, a
// secret out-parameter — so every function a secret enters on one of the
// tree's chains carries an annotation, and a secret handed to an
// unannotated helper is not followed into the helper's body. At a call the
// engine is conservative: the results derive from every input (the
// arguments other than declared out-parameters, and the receiver), and a
// secret input reaches every mutable-reference argument — and the
// receiver, unless the callee is declared in the module. A module method
// declares its effects instead: a write into one field of the receiver
// must not taint the whole receiver, as for a direct field write. Known
// holes, accepted for predictability: a write into a struct field taints
// the field object (for every instance in the function), not the
// enclosing variable, and a call's result never aliases secret storage.
const secretPrefix = "secmemlint:secret"

// outPrefix marks an out-parameter in the named form.
const outPrefix = "out:"

// declassifiedPkgs are import paths whose function results are public even
// when fed secrets: crypto/subtle reduces secrets to publishable decisions
// in constant time, which is exactly the sanctioned exit from the lattice.
var declassifiedPkgs = map[string]bool{
	"crypto/subtle": true,
}

// SecretIndex is the module-wide annotation table built once per run over
// every loaded package, so a secret declared in gf128 stays secret when
// gcmmode touches it through a selector.
type SecretIndex struct {
	// objs holds annotated objects: struct fields, parameters, receivers,
	// and variables.
	objs map[types.Object]bool
	// results holds functions whose results are annotated secret.
	results map[*types.Func]bool
	// outs maps functions to the indexes of their "out:" parameters.
	outs map[*types.Func][]int
	// taints caches per-function dataflow results across the analyzers of
	// one run.
	taints map[*ast.FuncDecl]*funcTaint
}

// collectSecrets builds the annotation index over all loaded packages.
func collectSecrets(pkgs []*Package) *SecretIndex {
	idx := &SecretIndex{
		objs:    make(map[types.Object]bool),
		results: make(map[*types.Func]bool),
		outs:    make(map[*types.Func][]int),
		taints:  make(map[*ast.FuncDecl]*funcTaint),
	}
	for _, pkg := range pkgs {
		idx.collectPackage(pkg)
	}
	return idx
}

// secretComment extracts the argument text of a secret annotation comment,
// reporting ok=false for non-annotation comments.
func secretComment(c *ast.Comment) (args string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, secretPrefix) {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, secretPrefix)), true
}

func groupHasSecret(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if _, ok := secretComment(c); ok {
			return true
		}
	}
	return false
}

func (idx *SecretIndex) collectPackage(pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		// Attachment pass: struct fields, var specs, and function docs.
		// Comments consumed here are excluded from the line-based pass so a
		// function-level annotation cannot double as a line annotation for
		// whatever sits beneath it.
		consumed := make(map[*ast.Comment]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					idx.collectField(info, field, consumed)
				}
			case *ast.ValueSpec:
				if groupHasSecret(n.Doc) || groupHasSecret(n.Comment) {
					for _, name := range n.Names {
						if obj := info.Defs[name]; obj != nil {
							idx.objs[obj] = true
						}
					}
					markConsumed(n.Doc, consumed)
					markConsumed(n.Comment, consumed)
				}
			case *ast.GenDecl:
				if n.Tok == token.VAR && groupHasSecret(n.Doc) {
					for _, spec := range n.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							if obj := info.Defs[name]; obj != nil {
								idx.objs[obj] = true
							}
						}
					}
					markConsumed(n.Doc, consumed)
				}
			case *ast.FuncDecl:
				idx.collectFuncDoc(info, n, consumed)
			}
			return true
		})

		// Line pass: a bare annotation on a var's line or the line directly
		// above taints the names defined there (covers short declarations
		// and unparenthesized vars, whose trailing comments float free in
		// the AST).
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if consumed[c] {
					continue
				}
				if _, ok := secretComment(c); ok {
					lines[pkg.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(lines) == 0 {
			continue
		}
		for ident, obj := range info.Defs {
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			pos := pkg.Fset.Position(ident.Pos())
			if pos.Filename != pkg.Fset.Position(f.Pos()).Filename {
				continue
			}
			if lines[pos.Line] || lines[pos.Line-1] {
				idx.objs[v] = true
			}
		}
	}
}

func markConsumed(g *ast.CommentGroup, consumed map[*ast.Comment]bool) {
	if g == nil {
		return
	}
	for _, c := range g.List {
		consumed[c] = true
	}
}

func (idx *SecretIndex) collectField(info *types.Info, field *ast.Field, consumed map[*ast.Comment]bool) {
	if !groupHasSecret(field.Doc) && !groupHasSecret(field.Comment) {
		return
	}
	for _, name := range field.Names {
		if obj := info.Defs[name]; obj != nil {
			idx.objs[obj] = true
		}
	}
	markConsumed(field.Doc, consumed)
	markConsumed(field.Comment, consumed)
}

// collectFuncDoc handles the named form in function doc comments:
// "//secmemlint:secret key h return out:dst" marks params/receiver key and
// h secret inside the body, the results secret at call sites, and the
// argument passed for dst secret after each call.
func (idx *SecretIndex) collectFuncDoc(info *types.Info, fn *ast.FuncDecl, consumed map[*ast.Comment]bool) {
	if fn.Doc == nil {
		return
	}
	var names []string
	for _, c := range fn.Doc.List {
		args, ok := secretComment(c)
		if !ok {
			continue
		}
		consumed[c] = true
		names = append(names, strings.FieldsFunc(args, func(r rune) bool {
			return r == ' ' || r == ',' || r == '\t'
		})...)
	}
	fnObj, _ := info.Defs[fn.Name].(*types.Func)
	if len(names) == 0 || fnObj == nil {
		return
	}
	// Resolve names among the receiver, parameters, and named results.
	byName := make(map[string]types.Object)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if obj := info.Defs[id]; obj != nil {
					byName[id.Name] = obj
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	addFields(fn.Type.Results)
	params := fnObj.Type().(*types.Signature).Params()
	for _, name := range names {
		if name == "return" {
			idx.results[fnObj] = true
			continue
		}
		if param, ok := strings.CutPrefix(name, outPrefix); ok {
			for i := 0; i < params.Len(); i++ {
				if params.At(i) == byName[param] && !slices.Contains(idx.outs[fnObj], i) {
					idx.outs[fnObj] = append(idx.outs[fnObj], i)
				}
			}
			continue
		}
		if obj, ok := byName[name]; ok {
			idx.objs[obj] = true
		}
		// Unknown names are ignored: annotations must not break the build,
		// and the golden fixtures pin the resolved behavior.
	}
}

// funcTaint is the fixpoint result for one function body.
type funcTaint struct {
	// secret holds the objects whose contents may derive from a secret.
	// Struct-field objects appear here when a field is written with
	// secret data (per-field, not per-instance, which is the conservative
	// direction).
	secret map[types.Object]bool
	// alias holds the objects whose backing storage may be secret storage
	// (the taintescape notion).
	alias map[types.Object]bool
}

// taintCtx bundles what an analyzer needs to query taint inside one
// function: the module's annotations and declarations, the package's type
// info, and the function's fixpoint state.
type taintCtx struct {
	idx   *SecretIndex
	decls map[*types.Func]*ast.FuncDecl
	info  *types.Info
	ft    *funcTaint
	// changed tracks growth within one fixpoint sweep.
	changed bool
}

// analyze returns the taint context for fn, computing and caching the
// fixpoint on first use.
func (idx *SecretIndex) analyze(pass *Pass, fn *ast.FuncDecl) *taintCtx {
	ctx := &taintCtx{idx: idx, decls: pass.module.decls, info: pass.Pkg.Info, ft: idx.taints[fn]}
	if ctx.ft == nil {
		ctx.ft = &funcTaint{
			secret: make(map[types.Object]bool),
			alias:  make(map[types.Object]bool),
		}
		idx.taints[fn] = ctx.ft
		if fn.Body != nil {
			ctx.fixpoint(fn.Body)
		}
	}
	return ctx
}

// fixpoint iterates the transfer functions until no object gains taint.
// Taint only accumulates, so termination is bounded by the number of
// objects; the iteration cap is a safety net, not a limit hit in practice.
func (c *taintCtx) fixpoint(body *ast.BlockStmt) {
	for i := 0; i < 1000; i++ {
		c.changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				c.transferAssign(n)
			case *ast.ValueSpec:
				c.transferValueSpec(n)
			case *ast.RangeStmt:
				c.transferRange(n)
			case *ast.CallExpr:
				c.transferCopy(n)
				c.transferCallEffects(n)
			}
			return true
		})
		if !c.changed {
			return
		}
	}
}

// mark adds obj to set, noting growth.
func (c *taintCtx) mark(set map[types.Object]bool, obj types.Object) {
	if obj != nil && !set[obj] {
		set[obj] = true
		c.changed = true
	}
}

// identObj resolves an identifier to the object it uses or defines.
func (c *taintCtx) identObj(id *ast.Ident) types.Object {
	if obj := c.info.Uses[id]; obj != nil {
		return obj
	}
	return c.info.Defs[id]
}

// lhsObj resolves an assignment target to the object whose contents the
// write lands in: a plain identifier, possibly through index, slice,
// dereference, address-of, or parens. Selector chains stop resolution: a
// write into one field must not taint the whole struct variable
// (f.key[i] = b taints neither f nor f.c); the field object itself is
// handled by fieldOf.
func (c *taintCtx) lhsObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.identObj(e)
	case *ast.IndexExpr:
		return c.lhsObj(e.X)
	case *ast.SliceExpr:
		return c.lhsObj(e.X)
	case *ast.StarExpr:
		return c.lhsObj(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.lhsObj(e.X)
		}
	}
	return nil
}

// fieldOf resolves a write target that lands in a struct field to the
// field object (x.y[i] = v taints field y), or nil.
func (c *taintCtx) fieldOf(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return v
			}
		}
	case *ast.IndexExpr:
		return c.fieldOf(e.X)
	case *ast.SliceExpr:
		return c.fieldOf(e.X)
	case *ast.StarExpr:
		return c.fieldOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.fieldOf(e.X)
		}
	}
	return nil
}

// assign applies a write of secret data to target: the plain-identifier
// root if one exists, else the struct field being written.
func (c *taintCtx) assign(target ast.Expr, secret bool) {
	if !secret {
		return
	}
	if obj := c.lhsObj(target); obj != nil {
		c.mark(c.ft.secret, obj)
	} else if fld := c.fieldOf(target); fld != nil {
		c.mark(c.ft.secret, fld)
	}
}

func (c *taintCtx) transferAssign(n *ast.AssignStmt) {
	// Tuple forms: x, ok := m[k] / v, ok := y.(T) / multi-return call.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		switch rhs := ast.Unparen(n.Rhs[0]).(type) {
		case *ast.IndexExpr, *ast.TypeAssertExpr:
			// The comma-ok bool reveals presence, not contents: taint the
			// value, leave ok public (branching on map presence is how the
			// on-chip residency checks work and is address-, not
			// secret-, dependent).
			c.assign(n.Lhs[0], c.Tainted(rhs))
		case *ast.CallExpr:
			secret := c.Tainted(rhs)
			for _, lhs := range n.Lhs {
				c.assign(lhs, secret)
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		lhs := n.Lhs[i]
		c.assign(lhs, c.Tainted(rhs))
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// x op= rhs keeps x's own taint; no alias rebinding.
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && c.AliasesSecret(rhs) {
			c.mark(c.ft.alias, c.identObj(id))
		}
	}
}

func (c *taintCtx) transferValueSpec(n *ast.ValueSpec) {
	for i, v := range n.Values {
		if i >= len(n.Names) {
			break
		}
		obj := c.info.Defs[n.Names[i]]
		if c.Tainted(v) {
			c.mark(c.ft.secret, obj)
		}
		if c.AliasesSecret(v) {
			c.mark(c.ft.alias, obj)
		}
	}
}

func (c *taintCtx) transferRange(n *ast.RangeStmt) {
	if !c.Tainted(n.X) {
		return
	}
	if n.Value != nil {
		c.assign(n.Value, true)
	}
	// Keys of slices/arrays are indices (public); map keys share the
	// container's secrecy.
	if n.Key != nil {
		if tv, ok := c.info.Types[n.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				c.assign(n.Key, true)
			}
		}
	}
}

// transferCopy models the copy builtin: copying from a secret source
// taints the destination's contents.
func (c *taintCtx) transferCopy(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return
	}
	if b, ok := c.info.Uses[id].(*types.Builtin); !ok || b.Name() != "copy" {
		return
	}
	c.assign(call.Args[0], c.Tainted(call.Args[1]))
}

// transferCallEffects applies a call's effects on the caller's variables:
// the argument for each declared out-parameter becomes secret and, when
// an input is secret, so does every mutable-reference argument and — for a
// callee outside the module — the receiver (binary.BigEndian.PutUint64(dst,
// secret) must taint dst; h.Write(key) must taint h). Conversions,
// builtins (copy is transferCopy's), and declassified packages have no
// effects.
func (c *taintCtx) transferCallEffects(call *ast.CallExpr) {
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	obj := calleeObject(c.info, call)
	if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
		return
	}
	fn, _ := obj.(*types.Func)
	if fn != nil && fn.Pkg() != nil && declassifiedPkgs[fn.Pkg().Path()] {
		return
	}
	for _, i := range c.idx.outs[fn] {
		if i < len(call.Args) {
			c.assign(call.Args[i], true)
		}
	}
	if !c.callInputsTainted(call, fn) {
		return
	}
	for _, arg := range call.Args {
		if c.mutableRef(arg) {
			c.assign(arg, true)
		}
	}
	if _, inModule := c.decls[fn]; inModule {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := c.info.Selections[sel]; isSel {
			c.assign(sel.X, true)
		}
	}
}

// mutableRef reports whether an argument's type lets the callee write
// through it into caller-visible storage.
func (c *taintCtx) mutableRef(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// callInputsTainted reports whether any input of the call is secret: an
// argument other than a declared out-parameter of fn, or the receiver. An
// out-parameter is written, not read, so the secret the call leaves in it
// does not flow back into the call's results.
func (c *taintCtx) callInputsTainted(call *ast.CallExpr, fn *types.Func) bool {
	outs := c.idx.outs[fn]
	for i, arg := range call.Args {
		if !slices.Contains(outs, i) && c.Tainted(arg) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := c.info.Selections[sel]; isSel {
			return c.Tainted(sel.X)
		}
	}
	return false
}

// Tainted reports whether evaluating e can yield secret-derived data — the
// analyzers' query.
func (c *taintCtx) Tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return c.objTainted(c.identObj(e))
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok {
			// Any field of a secret value is secret.
			return c.Tainted(e.X) || c.objTainted(sel.Obj())
		}
		return c.objTainted(c.info.Uses[e.Sel]) // qualified identifier pkg.Name
	case *ast.IndexExpr:
		// Element of a secret container, or a lookup keyed by a secret
		// index (sbox[k]): both yield correlated data.
		return c.Tainted(e.X) || c.Tainted(e.Index)
	case *ast.SliceExpr:
		return c.Tainted(e.X)
	case *ast.ParenExpr:
		return c.Tainted(e.X)
	case *ast.StarExpr:
		return c.Tainted(e.X)
	case *ast.UnaryExpr:
		return c.Tainted(e.X)
	case *ast.BinaryExpr:
		// Arithmetic, XOR, shifts, and even comparisons propagate: a bool
		// computed from a secret is a secret-dependent decision.
		return c.Tainted(e.X) || c.Tainted(e.Y)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if c.Tainted(elt) {
				return true
			}
		}
	case *ast.TypeAssertExpr:
		return c.Tainted(e.X)
	case *ast.CallExpr:
		return c.callTainted(e)
	}
	return false
}

// objTainted reports whether obj is annotated or has received secret data
// in this function.
func (c *taintCtx) objTainted(obj types.Object) bool {
	return obj != nil && (c.idx.objs[obj] || c.ft.secret[obj])
}

func (c *taintCtx) callTainted(call *ast.CallExpr) bool {
	// Conversions pass taint through: uint32(k), []byte(s), string(b).
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && c.Tainted(call.Args[0])
	}
	obj := calleeObject(c.info, call)
	if b, ok := obj.(*types.Builtin); ok {
		// len, cap, make, new, and copy (returns a count) yield lengths or
		// fresh allocations: public by construction.
		return b.Name() == "append" && slices.ContainsFunc(call.Args, c.Tainted)
	}
	fn, _ := obj.(*types.Func)
	if fn != nil {
		if pkg := fn.Pkg(); pkg != nil && declassifiedPkgs[pkg.Path()] {
			return false
		}
		if c.idx.results[fn] {
			return true
		}
	}
	return c.callInputsTainted(call, fn)
}

// calleeObject resolves a call's target to its types.Object (function,
// method, builtin), or nil for indirect calls through function values.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// AliasesSecret reports whether e directly aliases secret backing storage:
// an annotated object or field, a reslice of one, or a local previously
// assigned such an alias. A call's result counts as caller-owned memory:
// append and copy idioms return it, and the local pass does not look into
// a module helper that might return an alias.
func (c *taintCtx) AliasesSecret(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := c.identObj(e)
		return obj != nil && (c.ft.alias[obj] || c.idx.objs[obj])
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok {
			return c.AliasesSecret(e.X) || c.idx.objs[sel.Obj()]
		}
		obj := c.info.Uses[e.Sel]
		return obj != nil && c.idx.objs[obj]
	case *ast.SliceExpr:
		return c.AliasesSecret(e.X)
	case *ast.ParenExpr:
		return c.AliasesSecret(e.X)
	case *ast.StarExpr:
		return c.AliasesSecret(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && c.AliasesSecret(e.X)
	}
	return false
}

// isSliceExpr reports whether e's type is a slice (the shape that can
// escape as an alias; arrays are copied by value at return).
func isSliceExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Slice)
	return ok
}
