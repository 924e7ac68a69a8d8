package execmodels

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"

	"execmodels/internal/lint"
)

// wallConversions names the functions ("internal/pkg.Func") allowed to
// convert a core.WallSeconds value to another type, each with its
// reason. Formatting through fmt needs no conversion.
var wallConversions = map[string]string{}

// TestWallSecondsStayWall keeps measured time out of simulated state:
// simulated results must replay exactly from a seed. Wall time is typed
// core.WallSeconds, so the compiler refuses it wherever simulated
// seconds (a float64) belong. A conversion is the one way round that,
// and this test fails on each one in non-test code. It loads every
// package, so one that starts reading a Result is covered without
// editing a list.
func TestWallSecondsStayWall(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	isWall := func(tv types.TypeAndValue) bool {
		named, ok := tv.Type.(*types.Named)
		return ok && named.Obj().Name() == "WallSeconds" && named.Obj().Pkg().Path() == "execmodels/internal/core"
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				where := strings.TrimPrefix(pkg.Path, "execmodels/") + "."
				if fd, ok := decl.(*ast.FuncDecl); ok {
					where += fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 {
						return true
					}
					to, from := pkg.Info.Types[call.Fun], pkg.Info.Types[call.Args[0]]
					if to.IsType() && isWall(from) && !isWall(to) && wallConversions[where] == "" {
						t.Errorf("%s: %s converts WallSeconds to %s; wall time must not become simulated time",
							loader.Fset.Position(call.Pos()), where, to.Type)
					}
					return true
				})
			}
		}
	}
}
