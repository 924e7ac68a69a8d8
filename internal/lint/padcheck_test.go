package lint

import "testing"

func TestPadCheckFixture(t *testing.T) { checkFixture(t, NewPadCheck(), "padcheck") }

// TestPadCheckRealTree: the wall-clock executors' padded per-worker
// state (padCell, dynSpan, atomicInt64Pad) must verify — this replaces
// the hand-written unsafe.Sizeof test that used to pin the layouts.
func TestPadCheckRealTree(t *testing.T) {
	pkgs := loadReal(t, "internal/linalg", "internal/chem", "internal/deque", "internal/core")
	annotated := 0
	for _, pkg := range pkgs {
		findings := NewPadCheck().Run(pkg)
		for _, f := range findings {
			t.Errorf("padded type fails layout check: %s", f)
		}
	}
	// The check must actually have seen the core types; count the
	// annotations so a renamed directive cannot silently skip them.
	for _, pkg := range loadReal(t, "internal/core") {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if k, ok, _ := parseHotpath(c.Text); ok && k == "padded" {
						annotated++
					}
				}
			}
		}
	}
	if annotated < 3 {
		t.Errorf("found %d //hotpath:padded annotations in internal/core, want >= 3 (padCell, dynSpan, atomicInt64Pad)", annotated)
	}
}
