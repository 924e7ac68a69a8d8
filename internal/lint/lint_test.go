package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata package and fails the test on parse or
// type-check problems — fixtures must be valid Go so the analyzers see
// the same shape of input they see on the real tree.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", name, e)
	}
	return pkg
}

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

func TestDeterminismFixture(t *testing.T) { checkFixture(t, NewDeterminism(), "determinism") }
func TestGuardedByFixture(t *testing.T)   { checkFixture(t, NewGuardedBy(), "guardedby") }
func TestLockBalanceFixture(t *testing.T) { checkFixture(t, NewLockBalance(), "lockbalance") }
func TestFloatEqFixture(t *testing.T)     { checkFixture(t, NewFloatEq(), "floateq") }

// TestSuppression exercises the //lint:ignore path end to end through the
// driver: justified suppressions silence findings, mismatched checks do
// not, and a directive without a reason is itself reported.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "ignore")
	det := NewDeterminism()
	det.Packages = []string{"fixture/ignore"} // scope the check onto the fixture
	findings := Run([]*Package{pkg}, []Analyzer{det})

	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%s", f.Check, filepath.Base(f.Pos.Filename)))
	}
	// Expect exactly, in file order: rand.Intn in loud, rand.NormFloat64
	// under the wrong-check directive, and the malformed reason-less
	// directive itself.
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(findings), got)
	}
	wantSubstrings := []string{
		"rand.Intn",
		"rand.NormFloat64",
		"malformed directive",
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(findings[i].Message, sub) {
			t.Errorf("finding %d = %q, want substring %q", i, findings[i].Message, sub)
		}
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "rand.Float64") || strings.Contains(f.Message, "rand.Int ") {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
}

// TestAppliesTo pins the analyzer scoping rules the driver relies on.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		a    Analyzer
		path string
		want bool
	}{
		{NewDeterminism(), "execmodels/internal/core", true},
		{NewDeterminism(), "execmodels/internal/deque", true},
		{NewDeterminism(), "execmodels/internal/serve", true},
		{NewDeterminism(), "execmodels/internal/chem", false},
		{NewDeterminism(), "execmodels/internal/corelib", false},
		{NewGoleak(), "execmodels/internal/serve", true},
		{NewGoleak(), "execmodels/internal/chem", false},
		{NewFloatEq(), "execmodels/internal/chem", true},
		{NewFloatEq(), "execmodels/internal/linalg", true},
		{NewFloatEq(), "execmodels/internal/core", false},
		{NewShareIso(), "anything/at/all", true},
		{NewAtomicDiscipline(), "execmodels/internal/core", true},
		{NewAtomicDiscipline(), "execmodels/internal/deque", true},
		{NewAtomicDiscipline(), "execmodels/internal/chem", false},
		{NewCtxCancel(), "execmodels/internal/serve", true},
		{NewCtxCancel(), "execmodels/internal/core", false},
		{NewGuardedBy(), "anything/at/all", true},
		{NewLockBalance(), "anything/at/all", true},
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
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.ModPath != "execmodels" {
		t.Fatalf("module path = %q, want execmodels", loader.ModPath)
	}
	for _, rel := range []string{"internal/chem", "internal/core", "internal/linalg"} {
		dir := filepath.Join(loader.ModRoot, rel)
		pkg, err := loader.LoadDir(dir, "execmodels/"+rel)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: %d type errors, first: %v", rel, len(pkg.TypeErrors), pkg.TypeErrors[0])
		}
	}
}
