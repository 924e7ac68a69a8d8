package lint

import "testing"

// fixtureGoleak scopes the check onto the fixture package.
func fixtureGoleak(pkgPath string) *Goleak {
	return &Goleak{Packages: []string{pkgPath}}
}

func TestGoleakFixture(t *testing.T) {
	checkFixture(t, fixtureGoleak("fixture/goleak"), "goleak")
}

// TestGoleakRealTree: the executor packages' goroutines (wall-clock
// workers) must all carry completion edges today — the check
// exists to keep it that way.
func TestGoleakRealTree(t *testing.T) {
	pkgs := loadReal(t, "internal/linalg", "internal/chem", "internal/deque", "internal/core")
	var g Goleak
	g.Packages = []string{"internal/core"}
	for _, f := range g.RunProgram(pkgs) {
		t.Errorf("goroutine without completion edge: %s", f)
	}
}
