package wal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestStorageAndWALHaveNoTestOnlyCode: every function and method declared in
// the non-test files of internal/storage and internal/wal is named by the
// module's non-test code (benchmark/ and cmd/ included). A declaration that
// only _test.go files name is a second way to do something that production
// never takes; the tests use what production uses instead. A name counts
// wherever it appears, so a method is kept by any call of its name.
func TestStorageAndWALHaveNoTestOnlyCode(t *testing.T) {
	root := filepath.Join("..", "..")
	homes := []string{filepath.Join(root, "internal", "storage"), filepath.Join(root, "internal", "wal")}
	type decl struct{ pos, name string }
	var decls []decl
	named := map[bool]map[string]bool{false: {}, true: {}} // by whether a _test.go file names it
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		inHome := !test && slices.Contains(homes, filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !inHome {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = receiverName(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{fset.Position(fn.Pos()).String(), name})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[test][id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no declaration in internal/storage or internal/wal: the check no longer sees them")
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })
	for _, d := range decls {
		short := d.name[strings.LastIndex(d.name, ".")+1:]
		if named[false][short] {
			continue
		}
		if named[true][short] {
			t.Errorf("%s: %s is named only by tests; delete it, and test what production calls", d.pos, d.name)
		} else {
			t.Errorf("%s: %s is named by nothing; delete it", d.pos, d.name)
		}
	}
}

// receiverName is the type name of a method's receiver.
func receiverName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr: // a generic type's receiver
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
