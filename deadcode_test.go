package execmodels

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// uncalledAllowed names the declarations, as dir.Recv.Name or dir.Name,
// that are meant to have no caller in non-test code.
var uncalledAllowed = map[string]string{
	"internal/core.rankHeap.Less": "called by container/heap through heap.Interface",
	"internal/core.rankHeap.Swap": "called by container/heap through heap.Interface",
	"internal/serve.jobHeap.Less": "called by container/heap through heap.Interface",
	"internal/serve.jobHeap.Swap": "called by container/heap through heap.Interface",
}

// TestNoUncalledFunctions keeps production code from regrowing helpers
// that only tests call. Every function or method declared in a non-test
// file must have its name used as an identifier somewhere in non-test
// code other than its own declaration: anywhere in the module for an
// exported name, within the declaring package for an unexported one.
// The check goes by name only, so a test-only method that shares its
// name with a live one (Len, Reset) gets past it.
func TestNoUncalledFunctions(t *testing.T) {
	type decl struct{ key, use, pos string }
	var decls []decl
	used := map[string]bool{} // exported names bare, unexported as pkg.name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "main" {
				continue
			}
			declared[fd.Name] = true
			key, use := pkg+"."+fd.Name.Name, pkg+"."+fd.Name.Name
			if fd.Name.IsExported() {
				use = fd.Name.Name
			}
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					key = pkg + "." + id.Name + "." + fd.Name.Name
				}
			}
			decls = append(decls, decl{key, use, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name], used[pkg+"."+id.Name] = true, true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		if !used[d.use] && uncalledAllowed[d.key] == "" {
			t.Errorf("%s: %s has no caller outside tests; delete it or move it into a _test.go file", d.pos, d.key)
		}
	}
}
