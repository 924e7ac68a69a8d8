package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

// testLoader is the one Loader every test in this binary shares. The
// stdlib export-data importer then reads net/http and the rest of the
// standard library once, not once per test.
var testLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// realTreeRels are the repository packages the real-tree tests analyze,
// in dependency order: each is type-checked once, after everything it
// imports from this list, so all tests see one set of types.Objects.
var realTreeRels = []string{"internal/linalg", "internal/chem", "internal/deque", "internal/core", "internal/serve"}

var realTree struct {
	once sync.Once
	pkgs map[string]*Package
	err  error
}

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := testLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

// loadFixture loads one testdata package and fails the test on parse or
// type-check problems — fixtures must be valid Go so the analyzers see
// the same shape of input they see on the real tree.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := sharedLoader(t).LoadDir(filepath.Join("testdata", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", name, e)
	}
	return pkg
}

// loadReal returns repository packages, loaded once per test binary
// through the module-aware loader, for real-tree analysis tests.
func loadReal(t *testing.T, rels ...string) []*Package {
	t.Helper()
	loader := sharedLoader(t)
	realTree.once.Do(func() {
		realTree.pkgs = map[string]*Package{}
		for _, rel := range realTreeRels {
			pkg, err := loader.LoadDir(filepath.Join(loader.ModRoot, rel), "execmodels/"+rel)
			if err != nil {
				realTree.err = err
				return
			}
			realTree.pkgs[rel] = pkg
		}
	})
	if realTree.err != nil {
		t.Fatalf("loading the real tree: %v", realTree.err)
	}
	var pkgs []*Package
	for _, rel := range rels {
		pkg, ok := realTree.pkgs[rel]
		if !ok {
			t.Fatalf("%s is not in realTreeRels", rel)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: %d type errors, first: %v", rel, len(pkg.TypeErrors), pkg.TypeErrors[0])
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}
