package lint

import "testing"

func TestAtomicDisciplineFixture(t *testing.T) {
	a := NewAtomicDiscipline()
	a.Packages = []string{"fixture/atomicdiscipline"}
	checkFixture(t, a, "atomicdiscipline")
}

// TestAtomicDisciplineRealTree pins the concurrency-bearing packages
// free of mixed plain/atomic access and typed-atomic copies. Any word
// the tree accesses through sync/atomic is accessed that way everywhere.
func TestAtomicDisciplineRealTree(t *testing.T) {
	pkgs := loadReal(t, "internal/linalg", "internal/chem", "internal/deque", "internal/core", "internal/serve")
	findings := NewAtomicDiscipline().RunProgram(pkgs)
	for _, f := range findings {
		t.Errorf("unexpected finding on real tree: %s", f)
	}
}
