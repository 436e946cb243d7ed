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

// Package is one parsed and typechecked package ready for analysis. Test
// files (*_test.go) are excluded: the invariants guard production paths, and
// tests legitimately compare MACs with bytes.Equal or draw from math/rand.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info hold the typechecker's results. Info is always
	// populated even when TypeErrors is non-empty.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects typechecking problems without aborting the load,
	// so analyzers still run best-effort over partially broken code.
	TypeErrors []error
}

// Segment reports whether the last path segment of the package's import path
// equals name. Analyzers use it for package allow/deny lists so that the
// same rule applies to real packages and to testdata fixtures (whose import
// paths end in the mimicked package name).
func (p *Package) Segment(name string) bool {
	return lastSegment(p.Path) == name
}

func lastSegment(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// Load discovers, parses, and typechecks the packages selected by patterns,
// resolved relative to root. A pattern is either a directory ("./internal/core")
// or a recursive form ("./..."), mirroring the go tool; directories named
// testdata, hidden directories, and _-prefixed directories are skipped during
// recursive expansion but may be named explicitly (the golden-fixture tests
// load testdata packages directly).
//
// Only the standard library and packages of the enclosing module can be
// imported: local packages are typechecked from source in dependency order,
// and everything else falls back to go/importer's source importer, keeping
// the loader offline and free of external modules.
func Load(root string, patterns []string) ([]*Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(absRoot)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:     token.NewFileSet(),
		modRoot:  modRoot,
		modPath:  modPath,
		parsed:   make(map[string]*Package),
		checked:  make(map[string]*types.Package),
		checking: make(map[string]bool),
	}
	l.fallback = importer.ForCompiler(l.fset, "source", nil)

	var selected []string // import paths requested for analysis, in order
	seen := make(map[string]bool)
	for _, pat := range patterns {
		dirs, err := expandPattern(absRoot, pat)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			pkg, err := l.parseDir(dir)
			if err != nil {
				return nil, err
			}
			if pkg == nil || seen[pkg.Path] {
				continue // no non-test Go files here
			}
			seen[pkg.Path] = true
			selected = append(selected, pkg.Path)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("lint: no Go packages match %v under %s", patterns, absRoot)
	}

	var out []*Package
	for _, path := range selected {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadScoped loads every package of the module enclosing root in one Load
// call (so type objects are shared) and returns both the full set and the
// subset matched by patterns. Scoped lint runs must analyze the whole
// module — the secret annotations and function declarations of
// out-of-scope packages are what keep a selection like ./internal/core
// precise — while reporting only on the selection; see RunScoped.
func LoadScoped(root string, patterns []string) (all, selected []*Package, err error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	modRoot, _, err := findModule(absRoot)
	if err != nil {
		return nil, nil, err
	}
	want := make(map[string]bool)
	var extra []string // requested dirs the recursive walk skips (e.g. testdata)
	for _, pat := range patterns {
		dirs, err := expandPattern(absRoot, pat)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range dirs {
			if !want[d] {
				want[d] = true
				extra = append(extra, d)
			}
		}
	}
	sort.Strings(extra)
	all, err = Load(modRoot, append([]string{"./..."}, extra...))
	if err != nil {
		return nil, nil, err
	}
	for _, pkg := range all {
		if want[pkg.Dir] {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		return nil, nil, fmt.Errorf("lint: no Go packages match %v under %s", patterns, absRoot)
	}
	return all, selected, nil
}

type loader struct {
	fset     *token.FileSet
	modRoot  string
	modPath  string
	parsed   map[string]*Package // import path -> parsed (maybe unchecked) package
	checked  map[string]*types.Package
	checking map[string]bool // cycle detection
	fallback types.Importer
}

// importPath maps an absolute directory inside the module to its import path.
func (l *loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// dirOf inverts importPath for local packages.
func (l *loader) dirOf(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

func (l *loader) isLocal(importPath string) bool {
	return importPath == l.modPath || strings.HasPrefix(importPath, l.modPath+"/")
}

// parseDir parses the non-test Go files of one directory. Returns (nil, nil)
// when the directory holds no non-test Go files.
func (l *loader) parseDir(dir string) (*Package, error) {
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.parsed[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files}
	l.parsed[path] = pkg
	return pkg, nil
}

// check typechecks a local package, recursively checking local imports first.
func (l *loader) check(path string) (*Package, error) {
	pkg, ok := l.parsed[path]
	if ok && pkg.Types != nil {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	if !ok {
		var err error
		pkg, err = l.parseDir(l.dirOf(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files for %s", path)
		}
	}
	// Resolve local dependencies first so the importer can serve them.
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			dep := strings.Trim(imp.Path.Value, `"`)
			if l.isLocal(dep) && l.checked[dep] == nil {
				if _, err := l.check(dep); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, pkg.Files, info) // errors collected above
	pkg.Types = tpkg
	pkg.Info = info
	l.checked[path] = tpkg
	return pkg, nil
}

// loaderImporter serves local packages from the loader and everything else
// (i.e. the standard library) from the source importer.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(li)
	if l.isLocal(path) {
		if tp := l.checked[path]; tp != nil {
			return tp, nil
		}
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.fallback.Import(path)
}

// expandPattern resolves one pattern to a sorted list of candidate dirs.
func expandPattern(root, pat string) ([]string, error) {
	recursive := false
	switch {
	case pat == "...":
		recursive, pat = true, "."
	case strings.HasSuffix(pat, "/..."):
		recursive, pat = true, strings.TrimSuffix(pat, "/...")
	}
	base := pat
	if !filepath.IsAbs(base) {
		base = filepath.Join(root, base)
	}
	base = filepath.Clean(base)
	if fi, err := os.Stat(base); err != nil {
		return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
	}
	if !recursive {
		return []string{base}, nil
	}
	var dirs []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return d, strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}
