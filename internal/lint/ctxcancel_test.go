package lint

import "testing"

func TestCtxCancelFixture(t *testing.T) {
	c := NewCtxCancel()
	c.Packages = []string{"fixture/ctxcancel"}
	checkFixture(t, c, "ctxcancel")
}

// TestCtxCancelRealTree pins the serving layer's request paths
// cancelable: no handler reachable code blocks on a bare channel op or
// sleeps.
func TestCtxCancelRealTree(t *testing.T) {
	pkgs := loadReal(t, "internal/linalg", "internal/chem", "internal/deque", "internal/core", "internal/serve")
	findings := NewCtxCancel().RunProgram(pkgs)
	for _, f := range findings {
		t.Errorf("unexpected finding on real tree: %s", f)
	}
}
