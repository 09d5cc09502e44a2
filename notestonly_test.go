package cqms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// dispatched names the interfaces whose methods code outside the module finds
// at run time, on a value that non-test code has put in an interface: fmt
// asks a value for its String (TokenKind's, in the parser's errors), which
// go/types does not see. A method of one of these interfaces counts as used
// when its type implements the interface and a value of the type reaches any
// interface in non-test code.
const dispatched = `package dispatched

import "fmt"

var _ fmt.Stringer
`

// TestNoCodeOnlyTestsReach: every func, method, type, const and package-level
// var declared in a non-test file of the module is used by the module's
// non-test code. A declaration that only tests reach is a second way to do
// something that production never takes; the tests use what production uses
// instead. Uses from benchmark/, cmd/ and examples/ count. Two packages declare
// what nothing here need use: benchmark/, which the repository benchmark
// freezes, and the root package, the module's API for other modules.
//
// Every package is type-checked from its non-test files, its standard-library
// imports from the export data `go list -export` names. A use is an identifier
// that resolves to the declaration, outside the declaration itself (a
// recursive call, or the receiver of one of the type's own methods, is no
// use). A method also counts as used when a value of its type reaches, in
// non-test code, an interface or type constraint that declares the method. It
// counts too when a value of its type reaches any interface and the type
// implements an interface that declares the method and that non-test code
// asserts values to, or that code outside the module does (dispatched).
func TestNoCodeOnlyTestsReach(t *testing.T) {
	pkgs := listPackages(t)
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	l := &lint{
		fset:  fset,
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Instances: map[*ast.Ident]types.Instance{}},
		used:  map[types.Object]bool{},
		owner: map[*ast.Ident]types.Object{},
	}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var decls []types.Object
	for _, p := range pkgs { // go list -deps lists a package after its imports
		if p.Module == nil || !p.Module.Main {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH), GoVersion: "go" + p.Module.GoVersion}
		pkg, err := conf.Check(p.ImportPath, fset, files, l.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			l.scan(f)
		}
		if exempt := p.ImportPath == "repro" || p.ImportPath == "repro/benchmark" || strings.HasPrefix(p.ImportPath, "repro/benchmark/"); !exempt {
			decls = append(decls, declared(pkg, files, l.info)...)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no declaration to check: the lint no longer sees the module")
	}
	l.dispatch(t, imp)
	for _, c := range l.conversions {
		l.reach(c.from, c.to)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Pos() < decls[j].Pos() })
	for _, d := range decls {
		if !l.used[d] {
			t.Errorf("%s: %s is used by no non-test code; delete it, and test what production uses", fset.Position(d.Pos()), name(d))
		}
	}
}

// goPackage is the part of `go list -json` the lint reads.
type goPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Module                  *struct {
		Main      bool
		GoVersion string
	}
}

// listPackages lists the module's packages and everything they import, each
// after its imports, with export data for the standard library's.
func listPackages(t *testing.T) []goPackage {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Module", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// lint gathers the uses in the module's non-test code.
type lint struct {
	fset *token.FileSet
	info *types.Info
	used map[types.Object]bool
	// owner maps the identifiers that are no use of what they name (a
	// recursive call, a method's receiver type) to that declaration.
	owner       map[*ast.Ident]types.Object
	conversions []conversion
	// asserted holds the interfaces non-test code asserts values to.
	asserted []types.Type
}

// conversion is a value of type from that non-test code puts in an interface
// or passes as a type argument: to is the interface or the constraint.
type conversion struct{ from, to types.Type }

// declared lists the funcs, methods, types, consts and vars a package's files
// declare at package level.
func declared(pkg *types.Package, files []*ast.File, info *types.Info) []types.Object {
	var out []types.Object
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") {
					continue
				}
				out = append(out, info.Defs[d.Name])
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						out = append(out, info.Defs[s.Name])
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								out = append(out, info.Defs[n])
							}
						}
					}
				}
			}
		}
	}
	return out
}

// scan records a file's uses and the values it puts in interfaces.
func (l *lint) scan(f *ast.File) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		self := l.info.Defs[fn.Name]
		if fn.Recv != nil {
			ast.Inspect(fn.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if tn, ok := l.info.Uses[id].(*types.TypeName); ok {
						l.owner[id] = tn
					}
				}
				return true
			})
		}
		if fn.Body != nil {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] == self {
					l.owner[id] = self
				}
				return true
			})
		}
	}
	var results []*types.Tuple // of the enclosing funcs
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := l.info.Uses[n]; obj != nil && l.owner[n] != obj {
				l.used[origin(obj)] = true
			}
			if inst, ok := l.info.Instances[n]; ok {
				l.instance(l.info.Uses[n], inst)
			}
		case *ast.FuncDecl, *ast.FuncLit:
			var sig *types.Signature
			var body *ast.BlockStmt
			if fd, ok := n.(*ast.FuncDecl); ok {
				sig, body = l.info.Defs[fd.Name].Type().(*types.Signature), fd.Body
				if fd.Recv != nil {
					ast.Inspect(fd.Recv, visit)
				}
				ast.Inspect(fd.Type, visit)
			} else {
				fl := n.(*ast.FuncLit)
				sig, body = l.info.Types[fl].Type.(*types.Signature), fl.Body
				ast.Inspect(fl.Type, visit)
			}
			if body != nil {
				results = append(results, sig.Results())
				ast.Inspect(body, visit)
				results = results[:len(results)-1]
			}
			return false
		case *ast.ReturnStmt:
			if len(results) > 0 && len(n.Results) == results[len(results)-1].Len() {
				for i, e := range n.Results {
					l.convert(e, results[len(results)-1].At(i).Type())
				}
			}
		case *ast.CallExpr:
			tv := l.info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					l.convert(n.Args[0], tv.Type)
				}
				break
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			for i, e := range n.Args {
				switch params := sig.Params(); {
				case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
					if s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
						l.convert(e, s.Elem())
					}
				case i < params.Len():
					l.convert(e, params.At(i).Type())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, e := range n.Rhs {
					l.convert(e, l.info.Types[n.Lhs[i]].Type)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == len(n.Names) {
				for _, e := range n.Values {
					l.convert(e, l.info.Types[n.Type].Type)
				}
			}
		case *ast.SendStmt:
			if ch, ok := l.info.Types[n.Chan].Type.Underlying().(*types.Chan); ok {
				l.convert(n.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			l.composite(n)
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				l.assert(n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					l.assert(e)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				l.convert(n.X, l.info.Types[n.Y].Type)
				l.convert(n.Y, l.info.Types[n.X].Type)
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// composite records the values a composite literal puts in interface-typed
// fields, elements and keys.
func (l *lint) composite(n *ast.CompositeLit) {
	tv, ok := l.info.Types[n]
	if !ok {
		return
	}
	typ := tv.Type.Underlying()
	if p, ok := typ.(*types.Pointer); ok { // &T{...} elided in a literal of pointers
		typ = p.Elem().Underlying()
	}
	for i, e := range n.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		switch typ := typ.(type) {
		case *types.Struct:
			if keyed {
				for j := 0; j < typ.NumFields(); j++ {
					if id, ok := kv.Key.(*ast.Ident); ok && typ.Field(j).Name() == id.Name {
						l.convert(kv.Value, typ.Field(j).Type())
					}
				}
			} else if i < typ.NumFields() {
				l.convert(e, typ.Field(i).Type())
			}
		case *types.Slice, *types.Array:
			elem := typ.(interface{ Elem() types.Type }).Elem()
			if keyed {
				l.convert(kv.Value, elem)
			} else {
				l.convert(e, elem)
			}
		case *types.Map:
			if keyed {
				l.convert(kv.Key, typ.Key())
				l.convert(kv.Value, typ.Elem())
			}
		}
	}
}

// convert records e's value put in a value of type to, when to is an
// interface and e's type is not.
func (l *lint) convert(e ast.Expr, to types.Type) {
	tv, ok := l.info.Types[e]
	if !ok || to == nil || tv.Type == nil || !types.IsInterface(to) || types.IsInterface(tv.Type) {
		return
	}
	l.conversions = append(l.conversions, conversion{tv.Type, to})
}

// assert records an interface that non-test code asserts a value to.
func (l *lint) assert(e ast.Expr) {
	if tv := l.info.Types[e]; tv.IsType() && types.IsInterface(tv.Type) {
		l.asserted = append(l.asserted, tv.Type)
	}
}

// instance records the type arguments of a generic type's or func's
// instance as values reaching their constraints.
func (l *lint) instance(generic types.Object, inst types.Instance) {
	var params *types.TypeParamList
	switch g := generic.Type().(type) {
	case *types.Named:
		params = g.TypeParams()
	case *types.Signature:
		params = g.TypeParams()
	}
	for i := 0; params != nil && i < params.Len() && i < inst.TypeArgs.Len(); i++ {
		if arg := inst.TypeArgs.At(i); !types.IsInterface(arg) {
			l.conversions = append(l.conversions, conversion{arg, params.At(i).Constraint()})
		}
	}
}

// reach marks the methods of from that the interface to declares.
func (l *lint) reach(from, to types.Type) {
	iface, ok := to.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(from, true, m.Pkg(), m.Name()); obj != nil {
			l.used[origin(obj)] = true
		}
	}
}

// dispatch marks the methods of the interfaces in dispatched, and of those
// non-test code asserts values to, on every type a value of which reaches an
// interface and that implements one of them.
func (l *lint) dispatch(t *testing.T, imp types.Importer) {
	f, err := parser.ParseFile(l.fset, "dispatched.go", dispatched, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: imp}).Check("dispatched", l.fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	ifaces := l.asserted
	for id, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && id.Name == "_" {
			ifaces = append(ifaces, v.Type())
		}
	}
	for _, c := range l.conversions {
		for _, iface := range ifaces {
			if types.Implements(c.from, iface.Underlying().(*types.Interface)) {
				l.reach(c.from, iface)
			}
		}
	}
}

// origin is the generic declaration of an instantiated func, method or field.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// name is a declaration's name, a method's with its receiver type.
func name(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
