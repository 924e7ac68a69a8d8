package execmodels

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a repository path in prose or a code block: a
// top-level directory of this module followed by at least one path
// element, with or without a leading "./". The preceding character must
// not continue a word or a path, so module import paths
// (execmodels/internal/core) and URLs are not taken for files.
var docPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|examples|internal|scripts|benchmarks)/[\w./*-]*)`)

// docPaths returns every repository path the document text names, in
// order of appearance. A trailing "/..." (a Go package pattern) is
// dropped, so "./internal/..." names the directory internal, and so is
// sentence punctuation after the path.
func docPaths(text string) []string {
	var paths []string
	for _, m := range docPath.FindAllStringSubmatch(text, -1) {
		p := strings.TrimSuffix(m[1], "/...")
		p = strings.TrimRight(p, ".")
		p = strings.TrimSuffix(p, "/")
		paths = append(paths, p)
	}
	return paths
}

// Every cmd/, examples/, internal/, scripts/ and benchmarks/ path the
// documentation names must exist, so a deleted command or example cannot
// linger in a walkthrough. A path with a glob must match something.
func TestDocumentedPathsExist(t *testing.T) {
	for _, doc := range []string{
		"README.md",
		"DESIGN.md",
		"EXPERIMENTS.md",
		"benchmarks/README.md",
		".claude/skills/verify/SKILL.md",
	} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range docPaths(string(raw)) {
			if seen[p] {
				continue
			}
			seen[p] = true
			matches, err := filepath.Glob(p)
			if err != nil {
				t.Errorf("%s: bad path pattern %q: %v", doc, p, err)
				continue
			}
			if len(matches) == 0 {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}
}

func TestDocPathsExtraction(t *testing.T) {
	text := "run `go run ./cmd/hfscf -uhf`, see internal/chem/scf.go.\n" +
		"import execmodels/internal/core; go test ./internal/...\n" +
		"    benchmarks/run.sh, https://example.org/cmd/x"
	got := strings.Join(docPaths(text), " ")
	want := "cmd/hfscf internal/chem/scf.go internal benchmarks/run.sh"
	if got != want {
		t.Errorf("docPaths = %q, want %q", got, want)
	}
}
