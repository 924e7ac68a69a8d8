package lint

import "testing"

func TestShareIsoFixture(t *testing.T) { checkFixture(t, NewShareIso(), "shareiso") }

// TestShareIsoRealTree pins the repository's own hot paths lint-clean:
// the wall-clock worker loop writes only owner-domain state (wallAccum
// slots, per-worker ERIScratch) and the merge is ordered after wg.Wait,
// so shareiso must prove the tree race-free with zero findings.
func TestShareIsoRealTree(t *testing.T) {
	pkgs := loadReal(t, "internal/linalg", "internal/chem", "internal/deque", "internal/core")
	findings := NewShareIso().RunProgram(pkgs)
	for _, f := range findings {
		t.Errorf("unexpected finding on real tree: %s", f)
	}
}
