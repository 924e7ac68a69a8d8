package execmodels

import (
	"go/ast"
	"go/token"
	"strconv"
	"testing"
)

// randConstructors are the math/rand package-level functions that make a
// seeded generator rather than draw from the global one.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// TestNoGlobalRand keeps non-test code off math/rand's global generator,
// whose draws no seed in this repository controls: every random choice
// goes through a *rand.Rand made from an explicit seed.
func TestNoGlobalRand(t *testing.T) {
	eachNonTestFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		names := map[string]bool{} // what this file calls math/rand
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
				name := "rand"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && names[id.Name] && !randConstructors[sel.Sel.Name] {
					t.Errorf("%s: %s.%s draws from math/rand's global generator; use a seeded *rand.Rand",
						fset.Position(call.Pos()), id.Name, sel.Sel.Name)
				}
			}
			return true
		})
	})
}
