package storage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// visibilityHomes are the functions that decide whether a principal may see
// a record: the one scan loop, the single-record read and the annotation
// write, which must see the record it annotates.
var visibilityHomes = []string{"source.visit", "View.Get", "Store.Annotate"}

// TestVisibilityIsDecidedInOneLoop: outside visibilityHomes, no non-test code
// of the module names QueryRecord.VisibleTo, so every read of many records
// goes through the one scan loop, which also counts what it examined and
// checks its context; and the callback wrapper that used to check the
// context beside the loops, ScanWithContext, stays gone.
func TestVisibilityIsDecidedInOneLoop(t *testing.T) {
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// check reports the names n refers to from within home, the
		// function n is or belongs to.
		check := func(n ast.Node, home string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if n.Sel.Name != "VisibleTo" {
						break
					}
					if slices.Contains(visibilityHomes, home) {
						seen[home] = true
					} else {
						t.Errorf("%s: %s decides visibility itself; read the records through a scan of internal/storage (or View.Get)", fset.Position(n.Pos()), home)
					}
				case *ast.Ident:
					if n.Name == "ScanWithContext" {
						t.Errorf("%s: ScanWithContext is back; every scan takes its context and checks it in the scan loop", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				check(decl, "a top-level declaration")
				continue
			}
			home := fn.Name.Name
			if fn.Recv != nil {
				home = recvName(fn.Recv.List[0].Type) + "." + home
			}
			check(fn, home)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, home := range visibilityHomes {
		if !seen[home] {
			t.Errorf("%s does not call VisibleTo: the check no longer sees its homes", home)
		}
	}
}

// recvName is the type name of a method's receiver.
func recvName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
