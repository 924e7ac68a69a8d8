package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile("want\\s+((`[^`]*`\\s*)+)")

// parseWants extracts `// want `pattern“ expectations: file → line →
// regexes that must each match at least one finding on that line.
func parseWants(pkg *Package) map[string]map[int][]*regexp.Regexp {
	wants := map[string]map[int][]*regexp.Regexp{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := wants[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*regexp.Regexp{}
					wants[pos.Filename] = byLine
				}
				for _, pat := range strings.Split(m[1], "`") {
					pat = strings.TrimSpace(pat)
					if pat == "" {
						continue
					}
					byLine[pos.Line] = append(byLine[pos.Line], regexp.MustCompile(pat))
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture and enforces exact
// agreement between findings and // want expectations: every finding must
// be expected, every expectation must fire.
func checkFixture(t *testing.T, a Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	findings := a.Run(pkg)
	wants := parseWants(pkg)

	matched := map[string]bool{} // "file:line:patIdx"
	for _, f := range findings {
		pats := wants[f.Pos.Filename][f.Pos.Line]
		ok := false
		for i, re := range pats {
			if re.MatchString(f.Message) {
				matched[fmt.Sprintf("%s:%d:%d", f.Pos.Filename, f.Pos.Line, i)] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, byLine := range wants {
		for line, pats := range byLine {
			for i, re := range pats {
				if !matched[fmt.Sprintf("%s:%d:%d", file, line, i)] {
					t.Errorf("%s:%d: expected finding matching %q, got none", file, line, re)
				}
			}
		}
	}
}

func TestGuardedByFixture(t *testing.T) { checkFixture(t, NewGuardedBy(), "guardedby") }
func TestFloatEqFixture(t *testing.T)   { checkFixture(t, NewFloatEq(), "floateq") }

// TestSuppression exercises the //lint:ignore path end to end through the
// driver: justified suppressions silence findings, mismatched checks do
// not, and a directive without a reason is itself reported.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "ignore")
	fe := &FloatEq{Packages: []string{"fixture/ignore"}}
	findings := Run([]*Package{pkg}, []Analyzer{fe})

	// Expect exactly, in file order: the comparison in loud, the one
	// under the wrong-check directive, and the malformed reason-less
	// directive itself. The two suppressed comparisons must not appear.
	want := []string{"floateq", "floateq", "ignore"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(findings), len(want), findings)
	}
	for i, check := range want {
		if findings[i].Check != check {
			t.Errorf("finding %d = %s, want check %s", i, findings[i], check)
		}
	}
	if !strings.Contains(findings[2].Message, "malformed directive") {
		t.Errorf("finding 2 = %q, want the malformed-directive report", findings[2].Message)
	}
}

// TestAppliesTo pins the analyzer scoping rules the driver relies on.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		a    Analyzer
		path string
		want bool
	}{
		{NewGoleak(), "execmodels/internal/serve", true},
		{NewGoleak(), "execmodels/internal/corelib", false},
		{NewGoleak(), "execmodels/internal/chem", false},
		{NewFloatEq(), "execmodels/internal/chem", true},
		{NewFloatEq(), "execmodels/internal/linalg", true},
		{NewFloatEq(), "execmodels/internal/core", false},
		{NewCtxCancel(), "execmodels/internal/serve", true},
		{NewCtxCancel(), "execmodels/internal/core", false},
		{NewGuardedBy(), "anything/at/all", true},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.a.Name(), c.path, got, c.want)
		}
	}
}

// TestLoaderOnRealTree guards the module-aware loader: the repository's
// own cross-package imports (chem → linalg, core → everything) must
// type-check without errors, or floateq silently loses its type
// information.
func TestLoaderOnRealTree(t *testing.T) {
	if mod := sharedLoader(t).ModPath; mod != "execmodels" {
		t.Fatalf("module path = %q, want execmodels", mod)
	}
	loadReal(t, realTreeRels...) // fails the test on any type error
}
