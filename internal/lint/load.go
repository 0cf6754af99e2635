// Package lint is the determinism-contract static-analysis suite behind
// cmd/nowlint.
//
// The repo's load-bearing invariant is that simulation output is a pure
// function of the seed: byte-identical tables and ledgers at any
// parallelism. That contract is enforced dynamically by the
// lockstep/fuzz layers, but a nondeterminism source (an unsorted map walk
// feeding output, an unseeded clock read, an order-sensitive float fold)
// only trips those suites once it fires. The analyzers here catch the
// known hazard classes at go-vet time instead, by parsing and
// type-checking every package in the module with nothing but the standard
// library: go/parser + go/ast + go/types over `go list -json` package
// metadata, with stdlib imports satisfied from the build cache's export
// data (`go list -export`). Zero module dependencies, so tier-1 stays
// hermetic.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listPackage mirrors the subset of `go list -json` metadata the loader
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Error      *listError
}

type listError struct {
	Err string
}

// Package is one parsed and type-checked module package, ready for
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	FilePaths  []string
	Types      *types.Package
	Info       *types.Info
}

// Loader loads module packages (and their in-module import closure) via
// the go tool's package metadata and type-checks them in dependency
// order. Standard-library imports are resolved from compiled export data
// so the loader never needs to type-check the stdlib from source.
type Loader struct {
	fset      *token.FileSet
	pkgs      map[string]*Package // type-checked module packages by import path
	exports   map[string]string   // stdlib import path -> export data file
	stdlib    types.Importer
	moduleDir string
}

// Import implements types.Importer: module packages come from the loader's
// own type-checked cache, everything else from gc export data.
func (ld *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.pkgs[path]; ok {
		return p.Types, nil
	}
	return ld.stdlib.Import(path)
}

// Load lists patterns (plus their dependencies) in moduleDir, then parses
// and type-checks every non-stdlib package found, returning them sorted by
// import path.
func Load(moduleDir string, patterns ...string) ([]*Package, *Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(moduleDir, patterns)
	if err != nil {
		return nil, nil, err
	}

	ld := &Loader{
		fset:      token.NewFileSet(),
		pkgs:      make(map[string]*Package),
		exports:   make(map[string]string),
		moduleDir: moduleDir,
	}
	ld.stdlib = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := ld.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})

	var module []*listPackage
	byPath := make(map[string]*listPackage)
	for _, m := range metas {
		if m.Error != nil {
			return nil, nil, fmt.Errorf("lint: go list: %s: %s", m.ImportPath, m.Error.Err)
		}
		if m.Standard {
			ld.exports[m.ImportPath] = m.Export
			continue
		}
		module = append(module, m)
		byPath[m.ImportPath] = m
	}

	// Type-check in dependency order so module imports resolve from the
	// cache. The module's import graph is acyclic (the compiler enforces
	// it), so a postorder DFS is a topological sort.
	var (
		out   []*Package
		visit func(m *listPackage) error
		state = make(map[string]int) // 1 = in progress, 2 = done
	)
	visit = func(m *listPackage) error {
		switch state[m.ImportPath] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", m.ImportPath)
		case 2:
			return nil
		}
		state[m.ImportPath] = 1
		for _, imp := range m.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		pkg, err := ld.check(m.ImportPath, m.Dir, absFiles(m.Dir, m.GoFiles))
		if err != nil {
			return err
		}
		ld.pkgs[m.ImportPath] = pkg
		out = append(out, pkg)
		state[m.ImportPath] = 2
		return nil
	}
	for _, m := range module {
		if err := visit(m); err != nil {
			return nil, nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, ld, nil
}

// exportFile resolves a stdlib import path to its compiled export data,
// listing it on demand when it was not in the original patterns' closure
// (fixtures may import stdlib packages the module itself never uses).
func (ld *Loader) exportFile(path string) (string, error) {
	if f, ok := ld.exports[path]; ok && f != "" {
		return f, nil
	}
	metas, err := goList(ld.moduleDir, []string{path})
	if err != nil {
		return "", fmt.Errorf("lint: no export data for %q: %w", path, err)
	}
	for _, m := range metas {
		if m.Standard && m.Export != "" {
			ld.exports[m.ImportPath] = m.Export
		}
	}
	f, ok := ld.exports[path]
	if !ok || f == "" {
		return "", fmt.Errorf("lint: no export data for %q", path)
	}
	return f, nil
}

// LoadDir parses and type-checks one out-of-module directory of Go files
// (a lint fixture) under the given fake import path, resolving its
// imports against the loader's module cache and the stdlib. The package is
// not added to the cache, so a fixture may shadow a real module path.
func (ld *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	return ld.check(importPath, dir, files)
}

// check parses files and type-checks them as one package.
func (ld *Loader) check(importPath, dir string, files []string) (*Package, error) {
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       ld.fset,
		FilePaths:  files,
	}
	for _, f := range files {
		syn, err := parser.ParseFile(ld.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", f, err)
		}
		pkg.Files = append(pkg.Files, syn)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(importPath, ld.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// goList shells out to `go list -export -json -deps` and decodes the JSON
// stream. -export records each stdlib dependency's compiled export data
// path (compiling into the build cache on demand), which is what lets the
// type-checker resolve stdlib imports without a source walk.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list failed: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listPackage
	for {
		var m listPackage
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		out = append(out, &m)
	}
	return out, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}
