package bncg_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// crossPackageFixtures are the exported names in internal/ that only tests
// call, each kept for tests in another package.
var crossPackageFixtures = map[string]bool{
	// The uniform G(n,m) sampler behind the seeded random inputs of the
	// eq, dynamics and graph tests; RandomGNP draws another distribution.
	"repro/internal/graph.RandomGraph": true,
	// Structural graph equality, asserted by the tests of several packages.
	"repro/internal/graph.Graph.Equal": true,
	// The T_u-1-medians of Lemma 3.3, whose check runs in core's tests.
	"repro/internal/tree.Rooted.SubtreeMedians": true,
	// Bind once, check many concepts: the path BenchmarkSweepEvaluatorN8
	// and eq's allocation pins measure. Check rebinds on every call.
	"repro/internal/eq.Evaluator.CheckBound": true,
	// Copies a cache's certificates out, for the store warm-start
	// benchmark and the sweep shard test; production persists through a
	// sink attached before the sweep instead.
	"repro/internal/sweep.Cache.RangeCerts": true,
	// The Prometheus text-format linter. The server's tests lint the
	// daemon's /metrics scrape with it, and obs's own tests lint the
	// sidecar families.
	"repro/internal/obs.LintExposition": true,
}

// TestInternalExportsHaveProductionCallers fails on any exported function
// or method in internal/ that no production file references: the module's
// non-test files (cmd/ and examples/ included) and every file of the
// benchmark module, whose tests call Evaluator.Certify. Methods that
// satisfy an interface are exempt, as are the crossPackageFixtures.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	benchNames, _ := filepath.Glob("benchmark/*.go")
	benchFiles := parseFiles(t, fset, "", benchNames)
	args := []string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./..."}
	for _, f := range benchFiles {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(path, "repro") {
				args = append(args, path)
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	// Module packages are checked from source, in dependency order, so
	// references and interfaces see one object per declaration; the
	// standard library comes from export data.
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	used := map[types.Object]bool{}
	check := func(path string, files []*ast.File) *types.Package {
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range files {
			markUses(f, info, used)
		}
		return pkg
	}
	var std []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			std = append(std, p.ImportPath)
			exports[p.ImportPath] = p.Export
		} else {
			checked[p.ImportPath] = check(p.ImportPath, parseFiles(t, fset, p.Dir, p.GoFiles))
		}
	}
	check("repro/benchmark", benchFiles)
	for _, path := range std {
		pkg, err := gc.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, scopeInterfaces(pkg)...)
	}
	for _, pkg := range checked {
		ifaces = append(ifaces, scopeInterfaces(pkg)...)
	}

	var unused []string
	for path, pkg := range checked {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					unused = append(unused, path+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				for i := 0; ok && i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !used[m] && !satisfiesInterface(named, m.Name(), ifaces) {
						unused = append(unused, path+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		if !crossPackageFixtures[name] {
			t.Errorf("%s: exported from internal/, but no production file references it", name)
		}
	}
	for name := range crossPackageFixtures {
		if !slices.Contains(unused, name) {
			t.Errorf("%s: production references it now; drop it from crossPackageFixtures", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func parseFiles(t *testing.T, fset *token.FileSet, dir string, names []string) []*ast.File {
	t.Helper()
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// markUses records every function and method a file references, except a
// function's references to itself.
func markUses(f *ast.File, info *types.Info, used map[types.Object]bool) {
	for _, decl := range f.Decls {
		var self types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok && types.Object(fn.Origin()) != self {
					used[fn.Origin()] = true
				}
			}
			return true
		})
	}
}

// scopeInterfaces lists the package-level interface types of pkg.
func scopeInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether named or its pointer implements an
// interface that declares a method called method.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, method); obj == nil || !it.IsMethodSet() {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
