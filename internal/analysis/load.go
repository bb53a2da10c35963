package analysis

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
	"sync"
)

// Package is one parsed and type-checked module package.
type Package struct {
	// Path is the import path (modPath for the root directory).
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir string
	// Fset is shared across every package the loader touched.
	Fset *token.FileSet
	// Files are the non-test source files, parsed with comments.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// Src maps each file's path to its raw source, kept for the directive
	// scanner's trailing-comment detection.
	Src map[string][]byte
}

// Loader parses and type-checks packages of a single module entirely
// offline: module-local import paths resolve recursively through the loader
// itself, everything else (the standard library) resolves through the
// go/importer source importer, which compiles from GOROOT sources and so
// needs neither a network nor prebuilt export data.
//
// Test files (_test.go) and testdata directories are excluded: the linter
// certifies the shipped packages, and test code legitimately uses wall
// clocks and ad-hoc ordering.
type Loader struct {
	root string
	mod  string
	fset *token.FileSet
	pkgs map[string]*Package
	busy map[string]bool
}

// The standard-library source importer is memoized process-wide: it compiles
// each stdlib package from GOROOT sources exactly once, no matter how many
// Loaders (lint runs, fixture packages, fuzz iterations) ask for it. The
// importer caches by import path internally, so sharing one instance — and
// the FileSet its positions live in — turns the dominant cost of a lint run
// (re-type-checking the stdlib per load) into a one-time cost. A mutex
// serializes access: the source importer is not safe for concurrent use.
var (
	stdOnce sync.Once
	stdMu   sync.Mutex
	stdFset *token.FileSet
	stdImp  types.ImporterFrom
)

// sharedStd returns the process-wide FileSet and stdlib source importer.
func sharedStd() (*token.FileSet, types.ImporterFrom) {
	stdOnce.Do(func() {
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	return stdFset, stdImp
}

// stdImport resolves a non-module import through the shared source importer.
func stdImport(path, dir string, mode types.ImportMode) (*types.Package, error) {
	_, imp := sharedStd()
	stdMu.Lock()
	defer stdMu.Unlock()
	return imp.ImportFrom(path, dir, mode)
}

// NewLoader returns a loader for the module with the given root directory
// and module path. Loaders share one process-wide FileSet and stdlib source
// importer, so standard-library dependencies are type-checked once per
// process rather than once per loader.
func NewLoader(root, modPath string) *Loader {
	fset, _ := sharedStd()
	return &Loader{
		root: root,
		mod:  modPath,
		fset: fset,
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
	}
}

// Load expands the patterns (./..., ./dir/..., ./dir) against the module
// tree and returns the matched packages, parsed and type-checked, sorted by
// import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool)
	for _, pat := range patterns {
		any := false
		for _, d := range dirs {
			if matchPattern(pat, d.rel) {
				matched[d.rel] = true
				any = true
			}
		}
		if !any {
			return nil, fmt.Errorf("analysis: pattern %q matched no packages", pat)
		}
	}
	rels := make([]string, 0, len(matched))
	for rel := range matched {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	out := make([]*Package, 0, len(rels))
	for _, rel := range rels {
		pkg, err := l.loadPath(l.pathFor(rel))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

type pkgDir struct {
	rel string // "" for the module root
	abs string
}

// packageDirs walks the module tree for directories holding at least one
// non-test .go file, skipping VCS, testdata and hidden directories and, as
// the go tool's ./... does, nested modules (directories with their own
// go.mod).
func (l *Loader) packageDirs() ([]pkgDir, error) {
	var out []pkgDir
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != l.root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if has {
			rel, err := filepath.Rel(l.root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			out = append(out, pkgDir{rel: filepath.ToSlash(rel), abs: path})
		}
		return nil
	})
	return out, err
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// matchPattern reports whether a go-tool style pattern matches the
// module-relative package directory ("" is the root package).
func matchPattern(pat, rel string) bool {
	pat = strings.TrimPrefix(pat, "./")
	pat = filepath.ToSlash(pat)
	switch {
	case pat == "..." || pat == ".":
		return pat == "..." || rel == ""
	case strings.HasSuffix(pat, "/..."):
		base := strings.TrimSuffix(pat, "/...")
		return rel == base || strings.HasPrefix(rel, base+"/")
	default:
		return rel == strings.TrimSuffix(pat, "/")
	}
}

func (l *Loader) pathFor(rel string) string {
	if rel == "" {
		return l.mod
	}
	return l.mod + "/" + rel
}

// loadPath parses and type-checks one module package (by import path),
// memoized across the loader's lifetime.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Src:  make(map[string][]byte),
	}
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fname)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		f, err := parser.ParseFile(l.fset, fname, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Src[fname] = src
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source in %s", dir)
	}
	pkg.Info = NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// NewInfo allocates a types.Info with every resolution map the checkers
// consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load through
// the loader, everything else through the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return stdImport(path, dir, mode)
}

// Packages returns every module package the loader has type-checked so far —
// pattern-matched packages and their module-local dependencies alike —
// sorted by import path. The call-graph builder consumes this set so
// interprocedural facts cross package boundaries.
func (l *Loader) Packages() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.pkgs[p])
	}
	return out
}

// FindModule walks upward from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}
