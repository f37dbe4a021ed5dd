// Package hotpathalloc turns the repo's alloc-ceiling tests into a
// compile-time gate: functions annotated //nyquist:hotpath — the warm
// ingest pipeline (runIngest, fastParseLine, DB.AppendBatch, the tier
// bucketing fast path) — and every function reachable from them
// through static in-package calls must not contain allocating
// constructs. Cross-package calls are checked through facts: a
// dependency package exports an "allocates" fact for each function
// whose body (transitively, within that package) allocates without a
// //nyquist:allow-alloc suppression, and a hot path calling it is
// flagged at the call site.
//
// Flagged constructs: calls into fmt/log/encoding-json and friends,
// non-constant string concatenation, string<->[]byte/[]rune
// conversions (except the compiler-optimized map-lookup, comparison
// and switch positions), make/new/&composite/slice-literal/map-literal,
// closures, go statements, interface boxing of non-pointer values, and
// appends that either grow a package-level slice or whose result is
// not assigned back to the appended slice. Cold branches inside hot
// functions (first-sight series, error paths, buffer growth) are
// suppressed line by line with //nyquist:allow-alloc <reason> — the
// annotation is the documentation. A suppression on a call to an
// in-package function declares the entire callee a cold branch: the
// call edge is cut from both the transitive-allocates closure and the
// hot-path walk. Standard-library packages are never analyzed for
// facts (see allocPkgs): their once-ever or error-only slow paths
// would otherwise mark nearly every function as allocating.
package hotpathalloc

import (
	"fmt"
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
	Name:      "hotpathalloc",
	Doc:       "report allocating constructs in //nyquist:hotpath functions and their in-module callees",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*allocates)(nil)},
	Run:       run,
}

// allocates marks a function whose body (transitively within its
// package) contains an unsuppressed allocating construct; hot callers
// in downstream packages report calls to it.
type allocates struct {
	// Where describes the first allocating construct, for the
	// cross-package diagnostic.
	Where string
}

func (*allocates) AFact() {}

// allocPkgs deny-lists standard-library packages whose exported calls
// allocate by construction (or do I/O, which has no place on a hot
// path either). "*" means every function in the package.
var allocPkgs = map[string]map[string]bool{
	"fmt":           {"*": true},
	"log":           {"*": true},
	"log/slog":      {"*": true},
	"encoding/json": {"*": true},
	"regexp":        {"*": true},
	"errors":        {"New": true, "Join": true},
	"strings": {
		"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true,
		"Split": true, "SplitN": true, "SplitAfter": true, "Fields": true,
		"Map": true, "ToUpper": true, "ToLower": true, "ToValidUTF8": true,
		"Clone": true,
	},
	"strconv": {
		"FormatFloat": true, "FormatInt": true, "FormatUint": true,
		"FormatBool": true, "Itoa": true, "Quote": true, "QuoteToASCII": true,
	},
	"sort": {"Slice": true, "SliceStable": true, "SliceIsSorted": true},
	"time": {"Parse": true, "ParseInLocation": true, "ParseDuration": true},
}

// funcInfo is what the analyzer learns about one declared function.
type funcInfo struct {
	decl *ast.FuncDecl
	// sites are this body's own unsuppressed allocating constructs.
	sites []allocSite
	// callees are static calls to functions declared in this package.
	callees []*types.Func
	// extAllocs are calls to imported functions carrying an allocates
	// fact.
	extAllocs []allocSite
	hot       bool
	// allocates is the transitive closure used for the exported fact.
	allocates bool
	where     string
}

type allocSite struct {
	pos  token.Pos
	desc string
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Standard-library behavior is modeled by allocPkgs, not by facts:
	// computing transitive allocation over GOROOT packages would mark
	// sync.Pool.Get (pinSlow) and strconv.ParseFloat (error path) as
	// allocating and poison every caller.
	if directive.StdlibPackage(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directive.Collect(pass)

	funcs := make(map[*types.Func]*funcInfo)
	var order []*types.Func

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || directive.InTestFile(pass.Fset, decl.Pos()) {
			return
		}
		fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if fn == nil {
			return
		}
		fi := &funcInfo{decl: decl, hot: directive.FuncMarked(decl, "hotpath")}
		collectBody(pass, dirs, decl.Body, fi)
		funcs[fn] = fi
		order = append(order, fn)
	})

	// Transitive allocates closure over the in-package call graph.
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			fi := funcs[fn]
			if fi.allocates {
				continue
			}
			switch {
			case len(fi.sites) > 0:
				fi.allocates, fi.where = true, fi.sites[0].desc
			case len(fi.extAllocs) > 0:
				fi.allocates, fi.where = true, fi.extAllocs[0].desc
			default:
				for _, callee := range fi.callees {
					if cfi := funcs[callee]; cfi != nil && cfi.allocates {
						fi.allocates = true
						fi.where = "calls " + callee.Name() + ", which " + cfi.where
						break
					}
				}
			}
			if fi.allocates {
				changed = true
			}
		}
	}
	for _, fn := range order {
		if fi := funcs[fn]; fi.allocates {
			pass.ExportObjectFact(fn, &allocates{Where: fi.where})
		}
	}

	// Walk hot roots; report every reachable site once.
	reported := make(map[token.Pos]bool)
	for _, root := range order {
		if !funcs[root].hot {
			continue
		}
		seen := map[*types.Func]bool{}
		var visit func(fn *types.Func)
		visit = func(fn *types.Func) {
			if seen[fn] {
				return
			}
			seen[fn] = true
			fi := funcs[fn]
			if fi == nil {
				return
			}
			via := ""
			if fn != root {
				via = fmt.Sprintf(" (%s is on the hot path of %s)", fn.Name(), root.Name())
			}
			for _, s := range fi.sites {
				if !reported[s.pos] {
					reported[s.pos] = true
					pass.Reportf(s.pos, "hot path: %s%s", s.desc, via)
				}
			}
			for _, s := range fi.extAllocs {
				if !reported[s.pos] {
					reported[s.pos] = true
					pass.Reportf(s.pos, "hot path: %s%s", s.desc, via)
				}
			}
			for _, callee := range fi.callees {
				visit(callee)
			}
		}
		visit(root)
	}
	return nil, nil
}

// collectBody records body's allocating constructs and static callees
// into fi. Nested function literals are flagged as a single construct;
// their interiors are not walked (the closure is the allocation). The
// walk keeps an ancestor stack so conversions and appends can see the
// position they sit in.
func collectBody(pass *analysis.Pass, dirs *directive.Map, body *ast.BlockStmt, fi *funcInfo) {
	note := func(pos token.Pos, desc string) {
		if !dirs.Suppressed(pass, pos, "allow-alloc") {
			fi.sites = append(fi.sites, allocSite{pos, desc})
		}
	}

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := true
		switch n := n.(type) {
		case *ast.FuncLit:
			note(n.Pos(), "function literal allocates a closure")
			descend = false
		case *ast.GoStmt:
			note(n.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				note(n.Pos(), "slice literal allocates")
			case *types.Map:
				note(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					note(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo.TypeOf(n)) && pass.TypesInfo.Types[n].Value == nil {
				note(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypesInfo.TypeOf(n.Lhs[0])) {
				note(n.Pos(), "string += allocates")
			}
		case *ast.CallExpr:
			checkCall(pass, dirs, n, stack, fi, note)
		}
		if descend {
			stack = append(stack, n)
			return true
		}
		return false
	})
}

// checkCall classifies one call: builtin allocator, conversion,
// deny-listed stdlib call, in-package call edge, imported allocating
// function, or interface-boxing arguments.
func checkCall(pass *analysis.Pass, dirs *directive.Map, call *ast.CallExpr, stack []ast.Node, fi *funcInfo, note func(token.Pos, string)) {
	// Type conversions.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if !optimizedConversionPos(stack, call) {
			checkConversion(pass, call, tv.Type, note)
		}
		return
	}
	switch callee := typeutil.Callee(pass.TypesInfo, call).(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "make":
			note(call.Pos(), "make allocates")
		case "new":
			note(call.Pos(), "new allocates")
		case "append":
			checkAppend(pass, call, stack, note)
		}
		return
	case *types.Func:
		pkg := callee.Pkg()
		if pkg == nil {
			return
		}
		if pkg == pass.Pkg {
			// An allow-alloc on the call site declares the whole callee a
			// cold branch (first-sight series creation, seal, fallback
			// parse): the call edge is cut, so neither the transitive
			// allocates closure nor the hot-path walk descends into it.
			if !dirs.Suppressed(pass, call.Pos(), "allow-alloc") {
				fi.callees = append(fi.callees, callee)
			}
		} else if fns, ok := allocPkgs[pkg.Path()]; ok && (fns["*"] || fns[callee.Name()]) {
			if !dirs.Suppressed(pass, call.Pos(), "allow-alloc") {
				fi.sites = append(fi.sites, allocSite{call.Pos(), "call to " + pkg.Name() + "." + callee.Name() + " allocates"})
			}
		} else {
			var fact allocates
			if pass.ImportObjectFact(callee, &fact) {
				if !dirs.Suppressed(pass, call.Pos(), "allow-alloc") {
					fi.extAllocs = append(fi.extAllocs, allocSite{call.Pos(), "call to " + pkg.Name() + "." + callee.Name() + " allocates (" + fact.Where + ")"})
				}
			}
		}
		// The instantiated signature: a type parameter's constraint is no
		// interface its argument is boxed into.
		if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok {
			checkBoxing(pass, call, sig, note)
		}
	}
}

// checkConversion flags string<->[]byte/[]rune conversions.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, to types.Type, note func(token.Pos, string)) {
	from := pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	switch {
	case isString(to) && isByteOrRuneSlice(from):
		note(call.Pos(), "string([]byte) conversion copies")
	case isByteOrRuneSlice(to) && isString(from):
		note(call.Pos(), "[]byte(string) conversion copies")
	}
}

// optimizedConversionPos reports whether the conversion sits in a
// position the compiler is guaranteed to optimize away: a map lookup
// key (m[string(b)] as an rvalue), a string comparison operand, or a
// switch tag.
func optimizedConversionPos(stack []ast.Node, conv *ast.CallExpr) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.IndexExpr:
		if p.Index != ast.Expr(conv) {
			return false
		}
		// An index expression used as an assignment target is a map
		// insert: the key is retained, so the copy is real.
		if len(stack) >= 2 {
			if as, ok := stack[len(stack)-2].(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if lhs == ast.Expr(p) {
						return false
					}
				}
			}
		}
		return true
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return true
		}
	case *ast.SwitchStmt:
		return p.Tag == ast.Expr(conv)
	}
	return false
}

// checkBoxing flags concrete non-pointer values passed where the
// signature wants an interface: the conversion heap-allocates the
// value.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, sig *types.Signature, note func(token.Pos, string)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || pass.TypesInfo.Types[arg].IsNil() {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		if pointerShaped(at) {
			continue
		}
		note(arg.Pos(), "interface conversion of non-pointer value allocates")
	}
}

// checkAppend flags appends that grow a package-level slice, or whose
// result lands somewhere other than the appended slice (the growth
// then escapes the amortization the pooled buffers provide).
func checkAppend(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, note func(token.Pos, string)) {
	if len(call.Args) == 0 {
		return
	}
	if v := baseVar(pass, call.Args[0]); v != nil && isPackageLevel(pass, v) {
		note(call.Pos(), "append grows package-level slice "+v.Name())
		return
	}
	var lhs ast.Expr
	if len(stack) > 0 {
		if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if rhs == ast.Expr(call) {
					lhs = as.Lhs[i]
					break
				}
			}
		}
	}
	if lhs == nil {
		note(call.Pos(), "append result not reassigned to the appended slice")
		return
	}
	if types.ExprString(lhs) != types.ExprString(call.Args[0]) {
		note(call.Pos(), "append result assigned to a different slice than it grows")
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether boxing a value of type t into an
// interface stores the value directly in the data word (no allocation).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	b, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Builtin)
	return ok && b.Name() == name
}

// baseVar unwraps selectors/indexes/derefs to the root identifier's
// object.
func baseVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, _ := pass.TypesInfo.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isPackageLevel(pass *analysis.Pass, v *types.Var) bool {
	return v.Parent() == pass.Pkg.Scope()
}
