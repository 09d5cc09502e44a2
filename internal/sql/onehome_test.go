package sql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// featurePrefixes are the kinds of the flat feature set.
var featurePrefixes = []string{"table:", "col:", "pred:", "join:", "agg:", "groupby:"}

// TestFeatureKeysHaveOneHome: a feature string is spelled by internal/sql
// alone. Outside it, no string literal in the module's non-test code starts
// with a feature prefix; code that builds or reads a feature string calls
// sql.TableFeature, sql.ColumnFeature, sql.FeatureTable or a row's Feature.
func TestFeatureKeysHaveOneHome(t *testing.T) {
	root := filepath.Join("..", "..")
	home := filepath.Join(root, "internal", "sql")
	inHome := 0
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
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return true
			}
			for _, prefix := range featurePrefixes {
				if !strings.HasPrefix(s, prefix) {
					continue
				}
				if filepath.Dir(path) == home {
					inHome++
				} else {
					t.Errorf("%s spells the feature prefix %q (in %s); internal/sql is its one home", path, prefix, lit.Value)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inHome < len(featurePrefixes) {
		t.Errorf("internal/sql spells %d feature prefixes, want all %d: the check no longer sees their home", inHome, len(featurePrefixes))
	}
}
