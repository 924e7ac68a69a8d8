package lint

import (
	"strings"
	"testing"
)

// fixtureClockTaint returns the clocktaint analyzer scoped onto a
// fixture package (the defaults scope reporting to internal/* packages).
func fixtureClockTaint(pkgPath string) *ClockTaint {
	a := NewClockTaint()
	a.Packages = []string{pkgPath}
	return a
}

func TestClockTaintFixture(t *testing.T) {
	checkFixture(t, fixtureClockTaint("fixture/clocktaint"), "clocktaint")
}

func TestMapOrderFixture(t *testing.T) {
	a := NewMapOrder()
	a.Packages = []string{"fixture/maporder"}
	checkFixture(t, a, "maporder")
}

func TestLocksetFixture(t *testing.T) {
	checkFixture(t, NewLockset(), "lockset")
}

// TestClockTaintMultiHopPath pins the acceptance-criterion behavior: a
// flow whose source and sink are three calls apart renders the full
// source→call-chain→sink path, in order, on the finding.
func TestClockTaintMultiHopPath(t *testing.T) {
	pkg := loadFixture(t, "clocktaint")
	findings := fixtureClockTaint("fixture/clocktaint").Run(pkg)

	var hit *Finding
	for i, f := range findings {
		if strings.Contains(f.Message, "ScheduleCost") {
			hit = &findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no ScheduleCost finding; got %d findings", len(findings))
	}
	if len(hit.Path) < 4 {
		t.Fatalf("path has %d steps, want >= 4 (source, two hops, sink): %s", len(hit.Path), hit.Path)
	}
	rendered := hit.Path.String()
	order := []string{"time.Since", "clocktaint.sinceSeconds", "clocktaint.scale", "stored to"}
	last := -1
	for _, sub := range order {
		i := strings.Index(rendered, sub)
		if i < 0 {
			t.Fatalf("rendered path missing %q: %s", sub, rendered)
		}
		if i < last {
			t.Fatalf("rendered path has %q out of order: %s", sub, rendered)
		}
		last = i
	}
	for _, s := range hit.Path {
		if !s.Pos.IsValid() {
			t.Errorf("path step %q has no position", s.Desc)
		}
	}
}

// TestInterprocSuppression runs clocktaint through the driver: a
// //lint:ignore at the sink silences the whole interprocedural chain,
// and an unsuppressed sink in the same package still reports.
func TestInterprocSuppression(t *testing.T) {
	pkg := loadFixture(t, "taintignore")
	findings := Run([]*Package{pkg}, []Analyzer{fixtureClockTaint("fixture/taintignore")})

	if len(findings) != 1 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want exactly 1 (storeLoud)", len(findings))
	}
	if f := findings[0]; f.Check != "clocktaint" || !strings.Contains(f.Message, "ScheduleCost") {
		t.Fatalf("unexpected finding: %s", f)
	}
}

// TestSevenAnalyzers pins the suite composition and name stability —
// //lint:ignore directives and CI reference these names.
func TestSevenAnalyzers(t *testing.T) {
	want := []string{"guardedby", "floateq", "clocktaint", "maporder", "lockset", "goleak", "ctxcancel"}
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
