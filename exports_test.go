package learn2scale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExportKeeps lists the exported functions and methods under
// internal/ that no non-test file names but that stay in production
// code, each with the reason it stays.
var testOnlyExportKeeps = map[string]string{
	"Step":      "nn.Trainer.Step is the API whose zero-alloc steady state tools/benchjson gates",
	"NewMesh":   "topology.NewMesh builds the mesh that tests in several packages share",
	"FromSlice": "tensor.FromSlice builds the tensors that tests in several packages share",
	"Clone":     "tensor.Tensor.Clone copies tensors for tests in several packages",
}

// TestNoTestOnlyExports fails when an exported top-level function or
// method declared in a non-test file under internal/ is named by no
// non-test Go file of the repo (cmd/, examples/, tools/ and the
// perfbench module included) other than as its own declaration or as
// a method of an interface type, which declares the name but calls
// nothing; a call from its own file counts, since the program runs
// it. Such a name is a feature nothing runs (delete it) or an oracle
// only tests compare against (move it into a _test.go file). The match is by
// identifier, so comments and string literals never count as callers;
// a method shares its name with every other method of that name. The
// benchpair package is test support by design and is not checked.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var exports []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		checked := strings.HasPrefix(slash, "internal/") && !strings.HasPrefix(slash, "internal/benchpair/")
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if checked && fn.Name.IsExported() {
				exports = append(exports, decl{fn.Name.Name, fset.Position(fn.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						declared[id] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					named[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	kept := map[string]bool{}
	for _, e := range exports {
		if named[e.name] {
			continue
		}
		if _, ok := testOnlyExportKeeps[e.name]; ok {
			kept[e.name] = true
			continue
		}
		unused = append(unused, e.pos.String()+": "+e.name)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file: delete it, or move it into a _test.go file if tests compare against it", u)
	}
	for name := range testOnlyExportKeeps {
		if !kept[name] {
			t.Errorf("keep %q is no longer a test-only export; drop it from testOnlyExportKeeps", name)
		}
	}
}
