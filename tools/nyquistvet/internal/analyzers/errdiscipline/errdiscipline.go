// Package errdiscipline is a targeted errcheck over the calls whose
// errors are load-bearing for durability and observability: store
// appends, WAL appends and syncs, and HTTP/metrics response writes.
// The PR 5 "accepted-but-never-landed" bug was exactly a silent
// `_ = store.Append(...)`; this analyzer makes that shape unmergeable.
// A deliberate discard needs //nyquist:allow-discard <reason> on the
// line (or the line above) — the annotation is the documentation.
package errdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/tools/nyquistvet/internal/directive"
)

var Analyzer = &analysis.Analyzer{
	Name:     "errdiscipline",
	Doc:      "flag discarded errors from store appends, WAL appends/syncs, and handler writes",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// denyKey identifies a method by package name, receiver type name, and
// method name. Package *name* (not path) so fixtures can stub the real
// packages; receiver interfaces (http.ResponseWriter) match the same
// way.
type denyKey struct {
	pkg, recv, meth string
}

var denied = map[denyKey]bool{
	{"tsdb", "DB", "Append"}:            true,
	{"tsdb", "DB", "AppendUniform"}:     true,
	{"wal", "Log", "Append"}:            true,
	{"wal", "Log", "appendRec"}:         true,
	{"wal", "Log", "appendBlock"}:       true,
	{"wal", "Log", "Sync"}:              true,
	{"obs", "Registry", "WriteProm"}:    true,
	{"http", "ResponseWriter", "Write"}: true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directive.Collect(pass)

	report := func(pos token.Pos, what string) {
		if !dirs.Suppressed(pass, pos, "allow-discard") {
			pass.Reportf(pos, "%s", what)
		}
	}

	ins.Preorder([]ast.Node{
		(*ast.ExprStmt)(nil), (*ast.AssignStmt)(nil),
		(*ast.GoStmt)(nil), (*ast.DeferStmt)(nil),
	}, func(n ast.Node) {
		if directive.InTestFile(pass.Fset, n.Pos()) {
			return
		}
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name := deniedCall(pass, call); name != "" {
					report(call.Pos(), "error from "+name+" discarded; handle it or annotate //nyquist:allow-discard <reason>")
				}
			}
		case *ast.GoStmt:
			if name := deniedCall(pass, n.Call); name != "" {
				report(n.Call.Pos(), "error from go "+name+" discarded; handle it or annotate //nyquist:allow-discard <reason>")
			}
		case *ast.DeferStmt:
			if name := deniedCall(pass, n.Call); name != "" {
				report(n.Call.Pos(), "error from deferred "+name+" discarded; handle it or annotate //nyquist:allow-discard <reason>")
			}
		case *ast.AssignStmt:
			checkAssign(pass, n, report)
		}
	})
	return nil, nil
}

// checkAssign flags `_`-discards at the error result position of a
// deny-listed call on either side of a (possibly multi-value)
// assignment.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, report func(token.Pos, string)) {
	// Single call expanded to multiple LHS: x, _ := w.Write(b)
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		name := deniedCall(pass, call)
		if name == "" {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && i < len(as.Lhs) && resultIsError(pass, call, i) {
				report(lhs.Pos(), "error from "+name+" assigned to _; handle it or annotate //nyquist:allow-discard <reason>")
			}
		}
		return
	}
	// Pairwise: _ = d.log.appendBlock(...)
	for i := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
			if name := deniedCall(pass, call); name != "" {
				report(as.Lhs[i].Pos(), "error from "+name+" assigned to _; handle it or annotate //nyquist:allow-discard <reason>")
			}
		}
	}
}

// deniedCall returns "pkg.Recv.Meth" if the call resolves to a
// deny-listed method whose results include an error, else "".
func deniedCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	k := denyKey{fn.Pkg().Name(), named.Obj().Name(), fn.Name()}
	if !denied[k] {
		return ""
	}
	if !hasErrorResult(sig) {
		return ""
	}
	return k.pkg + "." + k.recv + "." + k.meth
}

func hasErrorResult(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func resultIsError(pass *analysis.Pass, call *ast.CallExpr, i int) bool {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || i >= sig.Results().Len() {
		return false
	}
	return isErrorType(sig.Results().At(i).Type())
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
