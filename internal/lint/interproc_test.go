package lint

import (
	"strings"
	"testing"
)

func TestMapOrderFixture(t *testing.T) {
	a := NewMapOrder()
	a.Packages = []string{"fixture/maporder"}
	checkFixture(t, a, "maporder")
}

// TestInterprocSuppression runs maporder through the driver: a
// //lint:ignore on the range line silences a finding whose effect lies
// two calls down, and an unsuppressed range in the same package still
// reports, with the whole call chain on its path.
func TestInterprocSuppression(t *testing.T) {
	pkg := loadFixture(t, "mapignore")
	a := NewMapOrder()
	a.Packages = []string{"fixture/mapignore"}
	findings, stale := RunWithStale([]*Package{pkg}, []Analyzer{a})

	if len(findings) != 1 || len(stale) != 0 {
		for _, f := range append(findings, stale...) {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings and %d stale directives, want exactly 1 (collectLoud) and 0", len(findings), len(stale))
	}
	f := findings[0]
	if f.Check != "maporder" || !strings.Contains(f.Message, "unsorted append to *out") {
		t.Fatalf("unexpected finding: %s", f)
	}
	if rendered := f.Path.String(); !strings.Contains(rendered, "calls mapignore.relay") || !strings.Contains(rendered, "calls mapignore.emit") {
		t.Fatalf("path %q does not show the chain through relay and emit", rendered)
	}
}

// TestFiveAnalyzers pins the suite composition and name stability —
// //lint:ignore directives and CI reference these names.
func TestFiveAnalyzers(t *testing.T) {
	want := []string{"guardedby", "floateq", "maporder", "goleak", "ctxcancel"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name() != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("%s has empty Doc", a.Name())
		}
		// guardedby and floateq run package by package; the rest see
		// the whole program.
		_, program := a.(ProgramAnalyzer)
		if wantProgram := i >= 2; program != wantProgram {
			t.Errorf("%s: implements ProgramAnalyzer = %v, want %v", a.Name(), program, wantProgram)
		}
	}
}
