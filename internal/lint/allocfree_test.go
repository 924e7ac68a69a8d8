package lint

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestAllocFreeFixture(t *testing.T) { checkFixture(t, NewAllocFree(), "allocfree") }

// TestAllocFreePathRendering pins the shape of the rendered chain on the
// multi-hop case: root first, every call hop in order, site last.
func TestAllocFreePathRendering(t *testing.T) {
	pkg := loadFixture(t, "allocfree")
	var deep []Finding
	for _, f := range NewAllocFree().Run(pkg) {
		if strings.Contains(f.Message, "Deep") {
			deep = append(deep, f)
		}
	}
	if len(deep) != 1 {
		t.Fatalf("got %d findings for root Deep, want 1: %v", len(deep), deep)
	}
	f := deep[0]
	if len(f.Path) != 4 {
		t.Fatalf("path has %d steps, want 4 (root, two hops, site): %s", len(f.Path), f.Path)
	}
	for i, sub := range []string{"hot path root", "calls", "calls", "escapes to the heap"} {
		if !strings.Contains(f.Path[i].Desc, sub) {
			t.Errorf("path step %d = %q, want substring %q", i, f.Path[i].Desc, sub)
		}
	}
}

// TestAllocSuppression exercises //lint:ignore allocfree through the
// driver: the sanctioned cold-start make stays quiet, the unsuppressed
// one reports with its interprocedural path.
func TestAllocSuppression(t *testing.T) {
	pkg := loadFixture(t, "allocignore")
	findings := Run([]*Package{pkg}, []Analyzer{NewAllocFree()})
	if len(findings) != 1 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want exactly 1 (the unsuppressed make)", len(findings))
	}
	if !strings.Contains(findings[0].Message, "make([]float64, 2)") {
		t.Errorf("surviving finding = %q, want the unsuppressed make([]float64, 2)", findings[0].Message)
	}
}

// TestHotpathMalformed: a //hotpath: directive with an unknown or empty
// kind is itself a finding — a typo would silently unprotect a hot path.
func TestHotpathMalformed(t *testing.T) {
	pkg := loadFixture(t, "hotpathbad")
	findings := Run([]*Package{pkg}, []Analyzer{NewAllocFree()})
	if len(findings) != 1 {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want 1 (kind fast)", len(findings))
	}
	f := findings[0]
	if f.Check != "hotpath" {
		t.Errorf("check = %q, want hotpath", f.Check)
	}
	if want := "malformed //hotpath: directive (kind fast)"; !strings.Contains(f.Message, want) {
		t.Errorf("message = %q, want substring %q", f.Message, want)
	}
}

// loadReal loads repository packages through the module-aware loader for
// real-tree analysis tests.
func loadReal(t *testing.T, rels ...string) []*Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, rel := range rels {
		pkg, err := loader.LoadDir(filepath.Join(loader.ModRoot, rel), "execmodels/"+rel)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: %d type errors, first: %v", rel, len(pkg.TypeErrors), pkg.TypeErrors[0])
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestAllocFreeRealTree is the acceptance gate in test form: the
// annotated chemistry hot paths (ExecuteTaskScratch and friends) must
// prove allocation-free — zero findings after the justified cold-start
// suppressions — and every allocfree suppression must still be earning
// its keep.
func TestAllocFreeRealTree(t *testing.T) {
	pkgs := loadReal(t, "internal/linalg", "internal/chem")
	findings, stale := RunWithStale(pkgs, []Analyzer{NewAllocFree()})
	for _, f := range findings {
		t.Errorf("hot path not allocation-free: %s", f)
	}
	for _, f := range stale {
		t.Errorf("stale suppression: %s", f)
	}

	// By function, not by file: kernel code may move between files.
	rep := NewAllocFree().Analyze(pkgs)
	for _, fn := range []string{"ERIBlockPairInto", "(hermiteRWork).compute", "digestJKStrides"} {
		if !rep.ReachableFuncs["execmodels/internal/chem."+fn] {
			t.Errorf("proof never reached chem.%s — the annotated roots are not wired to the ERI kernels", fn)
		}
	}
	sites := 0
	for _, lines := range rep.SiteLines {
		sites += len(lines)
	}
	if sites == 0 {
		t.Error("proof visited zero allocation/call lines — the analysis is vacuous")
	}
}

// escapeLineRe matches one compiler escape diagnostic:
// "file.go:line:col: <expr> escapes to heap" or "... moved to heap: x".
var escapeLineRe = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*)$`)

// TestAllocFreeCompilerGolden cross-checks the static proof against the
// compiler's own escape analysis: every allocation gc reports inside
// hot-path-reachable code must sit on a line the allocfree proof also
// visited (as a site or as the call edge inlining attributes it to). A
// compiler-found allocation the proof missed is a soundness hole.
func TestAllocFreeCompilerGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs := loadReal(t, "internal/linalg", "internal/chem")
	rep := NewAllocFree().Analyze(pkgs)

	cmd := exec.Command("go", "build", "-gcflags=-m=1", "./internal/chem")
	cmd.Dir = loader.ModRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=1: %v\n%s", err, out)
	}

	checked := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[3]
		isEscape := strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
		if !isEscape {
			continue
		}
		// Constant strings (panic messages) are backed by static data;
		// boxing them does not allocate at run time and the proof
		// deliberately exempts them.
		if strings.HasPrefix(msg, `"`) {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		var fullFile string
		inReach := false
		for name, extents := range rep.ReachableExtents {
			if !strings.HasSuffix(name, m[1]) {
				continue
			}
			fullFile = name
			for _, ext := range extents {
				if lineNo >= ext[0] && lineNo <= ext[1] {
					inReach = true
				}
			}
		}
		if !inReach {
			continue // cold code: setup, error paths, unannotated API
		}
		checked++
		if !rep.SiteLines[fullFile][lineNo] {
			t.Errorf("%s:%d: compiler reports %q inside hot-path-reachable code, but the allocfree proof has no site or call edge there", m[1], lineNo, msg)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d compiler escape diagnostics fell inside hot-path-reachable code — the golden cross-check is vacuous (did -gcflags=-m=1 output change format?)", checked)
	}
}
