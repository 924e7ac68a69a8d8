package lint

import (
	"strings"
	"testing"
)

// TestStaleSuppressions: a directive that suppressed nothing this run is
// reported, one that fired is not, and directives naming unselected
// checks are left alone (that run never gave them a chance to fire).
func TestStaleSuppressions(t *testing.T) {
	pkg := loadFixture(t, "staleignore")
	fe := &FloatEq{Packages: []string{"fixture/staleignore"}}
	findings, stale := RunWithStale([]*Package{pkg}, []Analyzer{fe})
	if len(findings) != 0 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 0 (the live directive suppresses the only one)", len(findings))
	}
	if len(stale) != 1 {
		for _, f := range stale {
			t.Logf("stale: %s", f)
		}
		t.Fatalf("got %d stale reports, want exactly 1 (dead's directive)", len(stale))
	}
	f := stale[0]
	if f.Check != "staleignore" {
		t.Errorf("stale check = %q, want staleignore", f.Check)
	}
	if !strings.Contains(f.Message, "//lint:ignore floateq suppresses nothing") {
		t.Errorf("stale message = %q, want the suppresses-nothing wording naming the check", f.Message)
	}
}

// FuzzDirectiveParse hammers the pure directive parser: arbitrary
// comment text must classify cleanly (directive, malformed, or not ours)
// and never panic — execlint parses every comment in the repository.
func FuzzDirectiveParse(f *testing.F) {
	for _, seed := range []string{
		"//lint:ignore determinism a fine reason",
		"//lint:ignore determinism",
		"//lint:ignore",
		"//lint:ignore  spaced   out  reason here",
		"//lint:ignoreallocfree glued",
		"// a regular comment",
		"//lint:ignore floateq exact by construction",
		"//lint:ignore maporder keys sorted below: trailing note",
		"//lint:ignore goleak",
		"//lint:ignore lockset per-worker accumulator",
		"//lint:ignor floateq misspelled prefix",
		"//lint:ignoree floateq misspelled prefix",
		"//lint:fast",
		"//lint:",
		"//lint: ignore floateq spaced prefix",
		"//lint:ignore\tfloateq\ttabbed reason",
		"//lint:ignore \x00 binary",
		"//lint:ignore floateq reason\r\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		check, reason, ok, malformed := parseIgnore(text)
		if ok && malformed {
			t.Fatalf("parseIgnore(%q): ok and malformed at once", text)
		}
		if ok && (check == "" || reason == "") {
			t.Fatalf("parseIgnore(%q): ok with empty check %q / reason %q", text, check, reason)
		}
		if !ok && !malformed && strings.HasPrefix(strings.TrimSpace(text), "//lint:ignore") {
			t.Fatalf("parseIgnore(%q): directive prefix classified as not-a-directive", text)
		}
	})
}
