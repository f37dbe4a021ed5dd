package repro

// The module's public surface, checked two ways with the standard library
// only. TestSurface type-checks every package of the main module and lists
// each package-level declaration and method that no non-test file
// references: a name only tests reach is surface nothing runs.
// TestPublicAPIGolden pins the exported API of the two public packages,
// nyquist and fleet, so that every addition or removal shows in review.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// kept lists the declarations TestSurface finds unreferenced that stay,
// each with its reason.
var kept = map[string]string{
	"nyquist.NewSeries":         "the only way to build the facade's Series; step 1 of its documented workflow",
	"dcsim.Device.CounterTrace": "ROADMAP item 8's oracle: the counter a device exports",
	"dcsim.Device.TraceAtRate":  "ROADMAP item 11(c)'s companion window",
	"wal.Durable.abort":         "the crash tests' seam: drops the log without a final sync",
	"bench.stack.post":          "bench/ changes only with the benchmark; its test drives the traced stack through it",
}

// TestSurface prints every package-level declaration and method of the
// main module that no non-test file references, outside the kept table.
// Files under cmd/, examples/ and bench/ count as callers, and so does the
// declaring package, but not a declaration's own body or, for a type, its
// own methods. A method that satisfies an interface the module uses, an
// exported constant whose enum type is used and an alias that names a type
// in its package's exported signatures count as used. It does not fail on
// what it finds: scripts/size.sh prints the count and the entries.
func TestSurface(t *testing.T) {
	var found []string
	reached := map[string]bool{}
	for _, name := range loadModule(t).unreferenced() {
		if _, ok := kept[name]; ok {
			reached[name] = true
			continue
		}
		found = append(found, name)
	}
	names := make([]string, 0, len(kept))
	for name := range kept {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if reached[name] {
			t.Logf("kept: %s: %s", name, kept[name])
		} else {
			t.Logf("kept, but referenced or gone: %s", name)
		}
	}
	t.Logf("unreferenced declarations: %d", len(found))
	for _, name := range found {
		t.Logf("unreferenced: %s", name)
	}
}

// TestPublicAPIGolden compares the exported API of nyquist and fleet with
// testdata/public_api.golden: every exported name with its kind and type,
// the exported fields of every exported struct, and the method set of every
// exported type and alias. Regenerate the golden with
//
//	go test -run '^TestPublicAPIGolden$' -count=1 -v . | grep -E '^(fleet|nyquist)\.' > testdata/public_api.golden
func TestPublicAPIGolden(t *testing.T) {
	m := loadModule(t)
	var b strings.Builder
	for _, path := range []string{modPath + "/fleet", modPath + "/nyquist"} {
		writeAPI(&b, m.pkgs[path].pkg)
	}
	got := b.String()
	if testing.Verbose() {
		fmt.Print(got)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "public_api.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := lines(got), lines(string(want))
	for _, line := range gotLines {
		if !slices.Contains(wantLines, line) {
			t.Errorf("added to the public API: %s", line)
		}
	}
	for _, line := range wantLines {
		if !slices.Contains(gotLines, line) {
			t.Errorf("gone from the public API: %s", line)
		}
	}
	t.Error("the public API differs from testdata/public_api.golden; regenerate it with the command above")
}

// writeAPI lists pkg's exported API, one sorted line per name, field or
// method: "pkg.Name kind type".
func writeAPI(b *strings.Builder, pkg *types.Package) {
	qual := func(p *types.Package) string { return p.Name() }
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		id := pkg.Name() + "." + name
		typ := types.TypeString(obj.Type(), qual)
		switch obj := obj.(type) {
		case *types.Const:
			fmt.Fprintf(b, "%s const %s\n", id, typ)
		case *types.Var:
			fmt.Fprintf(b, "%s var %s\n", id, typ)
		case *types.Func:
			fmt.Fprintf(b, "%s func %s\n", id, typ)
		case *types.TypeName:
			t := types.Unalias(obj.Type())
			st, isStruct := t.Underlying().(*types.Struct)
			switch {
			case obj.IsAlias():
				fmt.Fprintf(b, "%s alias %s\n", id, types.TypeString(t, qual))
			case isStruct: // its exported fields follow
				fmt.Fprintf(b, "%s type struct\n", id)
			default:
				fmt.Fprintf(b, "%s type %s\n", id, types.TypeString(t.Underlying(), qual))
			}
			if isStruct {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() {
						fmt.Fprintf(b, "%s.%s field %s\n", id, f.Name(), types.TypeString(f.Type(), qual))
					}
				}
			}
			mset := types.NewMethodSet(t)
			if !types.IsInterface(t) {
				mset = types.NewMethodSet(types.NewPointer(t))
			}
			for i := range mset.Len() {
				if f := mset.At(i).Obj(); f.Exported() {
					fmt.Fprintf(b, "%s.%s method %s\n", id, f.Name(), types.TypeString(f.Type(), qual))
				}
			}
		}
	}
}

func lines(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }

// module is the main module, type-checked from source without tests.
type module struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*modPkg // by import path
	order []*modPkg          // dependencies first
}

type modPkg struct {
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

const modPath = "repro"

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// loadModule type-checks every package of the main module once per test
// binary; tools/ is a module of its own and is left out.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() {
		fset := token.NewFileSet()
		m := &module{fset: fset, pkgs: map[string]*modPkg{}}
		m.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
		loadErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != "." && (name == "tools" || name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			var noGo *build.NoGoError
			if _, err := m.check(importPath(path)); err != nil && !errors.As(err, &noGo) {
				return err
			}
			return nil
		})
		loaded = m
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func importPath(dir string) string {
	if dir == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(dir)
}

func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == modPath || strings.HasPrefix(path, modPath+"/") {
		return m.check(path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

// check type-checks the package at path, its module imports first.
func (m *module) check(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		if p.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.pkg, nil
	}
	dir := "."
	if path != modPath {
		dir = filepath.FromSlash(strings.TrimPrefix(path, modPath+"/"))
	}
	p := &modPkg{dir: dir}
	m.pkgs[path] = p
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	m.order = append(m.order, p)
	return pkg, nil
}

// label names a declaration as "pkg.Name" or "pkg.Type.Method"; a main
// package is named by its directory.
func (m *module) label(obj types.Object) string {
	pkg := obj.Pkg().Name()
	if pkg == "main" {
		pkg = filepath.ToSlash(m.pkgs[obj.Pkg().Path()].dir)
	}
	if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
		return pkg + "." + recvType(f).Obj().Name() + "." + f.Name()
	}
	return pkg + "." + obj.Name()
}

// recvType is the named type method f is declared on.
func recvType(f *types.Func) *types.Named {
	t := f.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// unreferenced returns the labels, sorted, of the module's package-level
// declarations and methods that no non-test file references outside the
// declaration itself, less those TestSurface's rules count as used.
func (m *module) unreferenced() []string {
	// Every declaration, with the span a reference to it must fall
	// outside of to count; a type named only by its own methods is not
	// used by them either.
	span := map[types.Object][2]token.Pos{}
	self := map[*ast.Ident]bool{}
	for _, p := range m.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name]
					span[fn] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv == nil {
						continue
					}
					recv := recvType(fn.(*types.Func)).Obj()
					ast.Inspect(d, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == recv {
							self[id] = true
						}
						return true
					})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							span[p.info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								span[p.info.Defs[n]] = [2]token.Pos{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range m.order {
		for id, obj := range p.info.Uses {
			if self[id] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if s, ok := span[obj]; ok && s[0] <= id.Pos() && id.Pos() < s[1] {
				continue
			}
			used[obj] = true
		}
	}
	ifaces := m.interfaces()
	var out []string
	for obj := range span {
		if obj == nil || used[obj] || obj.Name() == "_" {
			continue
		}
		if obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main" {
			continue
		}
		if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
			if satisfies(f, ifaces) {
				continue
			}
		}
		if c, ok := obj.(*types.Const); ok && c.Exported() {
			if n, ok := c.Type().(*types.Named); ok && used[n.Obj()] {
				continue
			}
		}
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() && reexported(tn) {
			continue
		}
		out = append(out, m.label(obj))
	}
	sort.Strings(out)
	return out
}

// interfaces returns every interface with methods that the module's
// non-test files mention, plus fmt.Stringer, which fmt asserts at run time.
// The module's own named types need no descent: their fields and methods
// are definitions of their own.
func (m *module) interfaces() []*types.Interface {
	seen := map[types.Type]bool{}
	var out []*types.Interface
	collect := func(t types.Type) bool {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
		return false
	}
	for _, p := range m.order {
		for _, tv := range p.info.Types {
			walkType(tv.Type, seen, collect)
		}
		for _, obj := range p.info.Uses {
			walkType(obj.Type(), seen, collect)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				walkType(obj.Type(), seen, collect)
			}
		}
	}
	if fmtPkg, err := m.std.Import("fmt"); err == nil {
		walkType(fmtPkg.Scope().Lookup("Stringer").Type(), seen, collect)
	}
	return out
}

// satisfies reports whether method f is how its receiver type implements
// one of ifaces.
func satisfies(f *types.Func, ifaces []*types.Interface) bool {
	recv := recvType(f)
	for _, iface := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, f.Pkg(), f.Name()); m != nil &&
			(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
			return true
		}
	}
	return false
}

// reexported reports whether alias tn's target appears in the signature of
// another exported name of its package, or of a method or field of one:
// the alias is how a caller of that signature names the type.
func reexported(tn *types.TypeName) bool {
	target := types.Unalias(tn.Type())
	mentions := func(t types.Type) bool {
		return walkType(t, map[types.Type]bool{}, func(t types.Type) bool { return types.Identical(t, target) })
	}
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj == tn || !obj.Exported() {
			continue
		}
		if _, ok := obj.(*types.TypeName); !ok {
			if mentions(obj.Type()) {
				return true
			}
			continue
		}
		t := types.Unalias(obj.Type())
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := range ms.Len() {
			if ms.At(i).Obj().Exported() && mentions(ms.At(i).Type()) {
				return true
			}
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if st.Field(i).Exported() && mentions(st.Field(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// walkType calls visit on t and on each type t is built from, short of a
// named type's underlying type, skipping types in seen; it stops, and
// returns true, when visit does.
func walkType(t types.Type, seen map[types.Type]bool, visit func(types.Type) bool) bool {
	t = types.Unalias(t)
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if visit(t) {
		return true
	}
	switch t := t.(type) {
	case *types.Pointer:
		return walkType(t.Elem(), seen, visit)
	case *types.Slice:
		return walkType(t.Elem(), seen, visit)
	case *types.Array:
		return walkType(t.Elem(), seen, visit)
	case *types.Chan:
		return walkType(t.Elem(), seen, visit)
	case *types.Map:
		return walkType(t.Key(), seen, visit) || walkType(t.Elem(), seen, visit)
	case *types.Signature:
		return walkType(t.Params(), seen, visit) || walkType(t.Results(), seen, visit)
	case *types.Tuple:
		for i := range t.Len() {
			if walkType(t.At(i).Type(), seen, visit) {
				return true
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if walkType(t.Field(i).Type(), seen, visit) {
				return true
			}
		}
	}
	return false
}
