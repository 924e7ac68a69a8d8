package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and (best-effort) type-checked package.
// Analyzers consume this; they never touch the filesystem themselves.
type Package struct {
	Path  string // import path, e.g. "execmodels/internal/core"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only, with comments

	// Info holds type information. Type checking is best-effort: when an
	// import cannot be resolved the affected expressions simply have no
	// recorded type and analyzers degrade gracefully rather than crash.
	Info       *types.Info
	TypeErrors []error
}

// Loader parses and type-checks packages of one module. It resolves
// module-internal imports by recursive parsing and standard-library
// imports from the gc compiler's export data, which the go command
// builds into its cache on first use (go list -export), so it needs no
// third-party dependency. Type-checking net/http from its source took
// about ten times as long.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod ("" outside a module)
	ModPath string // module path from go.mod

	stdlib   types.Importer
	cache    map[string]*types.Package
	building map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir (or at
// dir itself when no go.mod is found, in which case only stdlib imports
// resolve).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:     token.NewFileSet(),
		cache:    map[string]*types.Package{},
		building: map[string]bool{},
	}
	l.stdlib = importer.ForCompiler(l.Fset, "gc", nil)
	root, modPath, err := findModule(abs)
	if err == nil {
		l.ModRoot, l.ModPath = root, modPath
	}
	return l, nil
}

// findModule walks up from dir looking for go.mod and returns the module
// root and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadDir loads the package in a single directory under the given import
// path. The path is what AppliesTo filters and ignore reporting see; for
// fixture tests it is arbitrary.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files}
	pkg.Info, pkg.TypeErrors = l.check(importPath, files)
	return pkg, nil
}

// Load resolves package patterns relative to dir. Supported patterns:
// "./..." (every package under dir), "dir/..." and plain directory paths
// like "./internal/core".
func (l *Loader) Load(dir string, patterns []string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var dirs []string
	explicit := map[string]string{} // dir → the pattern that named it
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(abs, strings.TrimSuffix(rest, "/"))
			if err := walkGoDirs(root, add); err != nil {
				return nil, err
			}
			continue
		}
		d := filepath.Join(abs, pat)
		explicit[d] = pat
		add(d)
	}
	var pkgs []*Package
	for _, d := range dirs {
		if !hasGoFiles(d) {
			// A directory named outright must hold a package — a typo'd
			// path silently matching nothing would turn the lint gate off.
			if pat, ok := explicit[d]; ok {
				return nil, fmt.Errorf("lint: pattern %q matches no Go package (dir %s)", pat, d)
			}
			continue
		}
		pkg, err := l.LoadDir(d, l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPathFor maps a directory to its import path within the module.
func (l *Loader) importPathFor(dir string) string {
	if l.ModRoot == "" {
		return filepath.ToSlash(dir)
	}
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// walkGoDirs calls add for every directory under root that may hold a
// package, skipping testdata, hidden and vendor directories.
func walkGoDirs(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		add(path)
		return nil
	})
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// parseDir parses the non-test Go files of dir in filename order (stable
// output requires stable input order).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package best-effort and returns the filled Info.
func (l *Loader) check(importPath string, files []*ast.File) (*types.Info, []error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	// The returned error duplicates the last collected one; Check still
	// fills info for everything it managed to resolve. A package already
	// imported keeps its cached copy: replacing it would give later
	// importers two distinct types for one declaration.
	pkg, _ := conf.Check(importPath, l.Fset, files, info)
	if _, cached := l.cache[importPath]; pkg != nil && !cached && !l.building[importPath] {
		l.cache[importPath] = pkg
	}
	return info, errs
}

// Import implements types.Importer: module-internal packages are loaded
// recursively from source; everything else goes to the stdlib
// export-data importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.ModPath != "" && (path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")) {
		if l.building[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")))
		files, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		l.building[path] = true
		defer delete(l.building, path)
		info := &types.Info{}
		var errs []error
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { errs = append(errs, err) },
		}
		pkg, _ := conf.Check(path, l.Fset, files, info)
		if pkg == nil {
			return nil, fmt.Errorf("lint: cannot type-check %s: %v", path, errs)
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.stdlib.Import(path)
}
