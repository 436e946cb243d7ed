package lint

import (
	"go/ast"
	"go/types"
)

// SecretFlow enforces the observability/secrecy boundary PR 2 made urgent:
// the obsv layer exports metric names, span labels, and trace arguments
// straight into JSON artifacts, and fmt/log/error formatting ends up in
// terminals and CI logs. None of those channels may ever see data derived
// from the AES key schedule, the GHASH subkey, a counter-mode pad, or
// on-chip plaintext — the paper's confidentiality argument (Section 3)
// assumes the only off-chip images of those values are the ciphertexts and
// clipped MACs. The analyzer walks the taint engine's per-function state
// and reports any secret-derived argument reaching a sink in the same
// body; a sink inside a callee is reported there when the callee declares
// the parameter secret.
const secretFlowName = "secretflow"

var SecretFlow = &Analyzer{
	Name: secretFlowName,
	Doc:  "secret-derived values must not reach fmt/log/error formatting or obsv sinks",
	Run:  runSecretFlow,
}

// fmtSinkPkgs are stdlib packages whose calls publish their arguments.
var fmtSinkPkgs = map[string]bool{"fmt": true, "log": true, "errors": true}

// obsvSinks maps receiver type name -> method names that publish string
// arguments into metrics or traces. Matching is by type and method name
// (like the other analyzers' shape heuristics) so testdata fixtures can
// mimic the obsv API without importing it.
var obsvSinks = map[string]map[string]bool{
	"Registry": {"Counter": true, "Gauge": true, "Histogram": true, "SetGauge": true},
	"Recorder": {"Span": true, "SpanID": true, "Instant": true, "Begin": true, "End": true},
}

func runSecretFlow(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctx := pass.secrets.analyze(pass, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if desc, ok := sinkCallDesc(pass.Pkg.Info, call); ok {
					reportTaintedArgs(pass, ctx, call, desc)
				}
				return true
			})
		}
	}
}

// sinkCallDesc classifies a call as a publishing sink — panic, fmt/log/
// errors formatting, or an obsv-shaped metric/trace method — and returns a
// human description.
func sinkCallDesc(info *types.Info, call *ast.CallExpr) (string, bool) {
	// panic(v) prints v's formatted value on the crash path.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return "panic (panic values are printed with the crash)", true
		}
	}

	if fn, pkg := qualifiedCallee(info, call); fn != "" && fmtSinkPkgs[pkg] {
		return pkg + "." + fn, true
	}

	// obsv-shaped method sinks: metric registration names and trace labels.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	recv := namedTypeName(selection.Recv())
	methods, ok := obsvSinks[recv]
	if !ok || !methods[sel.Sel.Name] {
		return "", false
	}
	return recv + "." + sel.Sel.Name +
		" (metric names and trace labels are exported verbatim into observability artifacts)", true
}

func reportTaintedArgs(pass *Pass, ctx *taintCtx, call *ast.CallExpr, sink string) {
	for _, arg := range call.Args {
		if ctx.Tainted(arg) {
			pass.Reportf(arg.Pos(),
				"secret-derived value reaches %s; key, pad, tag-state, and plaintext material must never leave through logs, errors, metrics, or traces",
				sink)
		}
	}
}

// namedTypeName returns the name of t's named type, unwrapping one pointer
// level ("Registry" for *obsv.Registry), or "" when unnamed.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
