// Package lockdiscipline machine-checks what code may do while a
// contended lock is held. Mutex struct fields annotated
// //nyquist:hotlock (the tsdb shard lock, the series lock) define
// critical sections; inside one, the analyzer flags direct calls that
// block or do I/O (time.Sleep, os/net/fmt-print/log), channel
// operations (except non-blocking selects with a default), WaitGroup
// and Cond waits, and — the re-entrancy contract — calls to exported
// tsdb.DB methods, which would self-deadlock on the lock already held.
//
// The OnSeal hook contract is checked the same way from the caller's
// side: a function literal passed to (*tsdb.DB).OnSeal runs under the
// shard lock, so its body is analyzed as an implicit critical section
// even though the Lock() call is in another package.
//
// The analysis is direct-call only (no transitive closure): a helper
// that blocks must be flagged where the blocking construct is, which
// keeps diagnostics attached to the line that must change. Deliberate
// exceptions carry //nyquist:allow-block <reason>.
package lockdiscipline

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
	Name:      "lockdiscipline",
	Doc:       "flag blocking calls, I/O, and store re-entrancy while a //nyquist:hotlock lock (or the OnSeal shard lock) is held",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*hotLock)(nil)},
	Run:       run,
}

// hotLock marks a struct field as an annotated hot lock, so packages
// embedding or locking it across package boundaries see the contract.
type hotLock struct{}

func (*hotLock) AFact() {}

// blockingPkgs deny-lists standard-library packages whose calls block
// or perform I/O. Map value restricts to named functions; "*" is the
// whole package.
var blockingPkgs = map[string]map[string]bool{
	"time":     {"Sleep": true, "After": true, "Tick": true},
	"os":       {"*": true},
	"net":      {"*": true},
	"net/http": {"*": true},
	"syscall":  {"*": true},
	"io":       {"ReadAll": true, "Copy": true, "CopyN": true, "CopyBuffer": true},
	"bufio":    {"*": true},
	"fmt": {
		"Print": true, "Println": true, "Printf": true,
		"Fprint": true, "Fprintln": true, "Fprintf": true,
	},
	"log":      {"*": true},
	"log/slog": {"*": true},
}

// reentrant lists (package name, receiver type name) pairs whose
// exported methods re-enter the store and would self-deadlock under a
// shard lock.
var reentrant = map[[2]string]bool{
	{"tsdb", "DB"}: true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directive.Collect(pass)

	// Collect //nyquist:hotlock fields declared in this package and
	// export a fact per field for cross-package lock sites.
	hot := make(map[*types.Var]bool)
	ins.Preorder([]ast.Node{(*ast.StructType)(nil)}, func(n ast.Node) {
		st := n.(*ast.StructType)
		for _, f := range st.Fields.List {
			if !directive.FieldMarked(f, "hotlock") {
				continue
			}
			for _, name := range f.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					hot[v] = true
					pass.ExportObjectFact(v, &hotLock{})
				}
			}
		}
	})
	isHot := func(v *types.Var) bool {
		if hot[v] {
			return true
		}
		var f hotLock
		return pass.ImportObjectFact(v, &f)
	}

	c := &checker{pass: pass, dirs: dirs, isHot: isHot}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || directive.InTestFile(pass.Fset, decl.Pos()) {
			return
		}
		c.walkStmts(decl.Body.List, map[*types.Var]string{})
	})

	// OnSeal hooks run under the shard lock in the registering
	// package's callee; check literal hook bodies as critical sections.
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if directive.InTestFile(pass.Fset, call.Pos()) {
			return
		}
		fn, _ := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if fn == nil || fn.Name() != "OnSeal" || !recvMatches(fn, "tsdb", "DB") {
			return
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				held := map[*types.Var]string{nil: "the OnSeal hook (runs under the shard lock)"}
				c.walkStmts(lit.Body.List, held)
			}
		}
	})
	return nil, nil
}

type checker struct {
	pass  *analysis.Pass
	dirs  *directive.Map
	isHot func(*types.Var) bool
}

// walkStmts tracks the held-lock set through a statement list in
// source order. Nested blocks get a copy: a lock taken inside a branch
// does not leak past it, and an unlock inside a branch does not clear
// the outer hold (conservative both ways, reported only when held).
func (c *checker) walkStmts(stmts []ast.Stmt, held map[*types.Var]string) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if v, op := c.lockOp(s.X); v != nil {
				switch op {
				case "Lock", "RLock":
					held[v] = v.Name()
				case "Unlock", "RUnlock":
					delete(held, v)
				}
				continue
			}
			c.checkNode(s, held)
		case *ast.DeferStmt:
			if v, op := c.lockOp(s.Call); v != nil && (op == "Unlock" || op == "RUnlock") {
				continue // deferred unlock: held to function end
			}
			c.checkNode(s, held)
		case *ast.BlockStmt:
			c.walkStmts(s.List, clone(held))
		case *ast.IfStmt:
			c.checkParts(held, s.Init, s.Cond)
			c.walkStmts(s.Body.List, clone(held))
			if s.Else != nil {
				c.walkStmts([]ast.Stmt{s.Else}, clone(held))
			}
		case *ast.ForStmt:
			c.checkParts(held, s.Init, s.Cond, s.Post)
			c.walkStmts(s.Body.List, clone(held))
		case *ast.RangeStmt:
			c.checkParts(held, s.X)
			c.walkStmts(s.Body.List, clone(held))
		case *ast.SwitchStmt:
			c.checkParts(held, s.Init, s.Tag)
			for _, cc := range s.Body.List {
				c.walkStmts(cc.(*ast.CaseClause).Body, clone(held))
			}
		case *ast.TypeSwitchStmt:
			c.checkParts(held, s.Init, s.Assign)
			for _, cc := range s.Body.List {
				c.walkStmts(cc.(*ast.CaseClause).Body, clone(held))
			}
		case *ast.SelectStmt:
			// A select with a default case is non-blocking at the comm
			// points; its case bodies are still checked.
			hasDefault := false
			for _, cc := range s.Body.List {
				if cc.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			for _, cc := range s.Body.List {
				comm := cc.(*ast.CommClause)
				if !hasDefault && comm.Comm != nil {
					c.checkNode(comm.Comm, held)
				}
				c.walkStmts(comm.Body, clone(held))
			}
		case *ast.LabeledStmt:
			c.walkStmts([]ast.Stmt{s.Stmt}, held)
		default:
			c.checkNode(s, held)
		}
	}
}

func (c *checker) checkParts(held map[*types.Var]string, nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil && !isNilNode(n) {
			c.checkNode(n, held)
		}
	}
}

// isNilNode guards against typed-nil ast.Node interfaces from optional
// statement fields (s.Init, s.Cond, ...).
func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case ast.Stmt:
		return v == nil
	case ast.Expr:
		return v == nil
	}
	return false
}

// checkNode reports blocking constructs inside one statement or
// expression subtree while any lock is held. Function literals are
// skipped: defining a closure under a lock is fine, running it is
// checked wherever it runs.
func (c *checker) checkNode(root ast.Node, held map[*types.Var]string) {
	if len(held) == 0 {
		return
	}
	lockDesc := func() string {
		for _, d := range held {
			return d
		}
		return "a lock"
	}
	report := func(pos token.Pos, what string) {
		if !c.dirs.Suppressed(c.pass, pos, "allow-block") {
			c.pass.Reportf(pos, "%s while %s is held", what, lockDesc())
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			fn, _ := typeutil.Callee(c.pass.TypesInfo, n).(*types.Func)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fns, ok := blockingPkgs[fn.Pkg().Path()]; ok && (fns["*"] || fns[fn.Name()]) {
				report(n.Pos(), "call to "+fn.Pkg().Name()+"."+fn.Name()+" (blocking or I/O)")
				return true
			}
			if fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
				report(n.Pos(), "call to sync "+recvName(fn)+".Wait")
				return true
			}
			if ast.IsExported(fn.Name()) && reentrantRecv(fn) {
				report(n.Pos(), "re-entrant call to "+fn.Pkg().Name()+"."+recvName(fn)+"."+fn.Name())
			}
		}
		return true
	})
}

// lockOp matches <expr>.<hotfield>.(Lock|RLock|Unlock|RUnlock)() and
// returns the lock field's object.
func (c *checker) lockOp(e ast.Expr) (*types.Var, string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fv, _ := c.pass.TypesInfo.Uses[inner.Sel].(*types.Var)
	if fv == nil || !c.isHot(fv) {
		return nil, ""
	}
	return fv, op
}

func recvMatches(fn *types.Func, pkgName, typeName string) bool {
	return fn.Pkg() != nil && fn.Pkg().Name() == pkgName && recvName(fn) == typeName
}

func reentrantRecv(fn *types.Func) bool {
	return reentrant[[2]string{fn.Pkg().Name(), recvName(fn)}]
}

func recvName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func clone(m map[*types.Var]string) map[*types.Var]string {
	out := make(map[*types.Var]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
