package fxrz_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// auditSeams are the exported internal/ names only tests reach, as
// "package.Name" → why: each is an injected seam or an accessor nothing else
// can observe. At most 8.
var auditSeams = map[string]string{
	"ratelimit.SetClock":       "test seam: injected clock",
	"shard.SetSleep":           "test seam: injected retry sleep",
	"shard.SetAttemptTimeout":  "test seam: per-attempt timeout",
	"serve.ShardRouter":        "accessor: the router a test cluster injects the two shard seams into",
	"core.TrainedRatioRange":   "accessor: the trained hull the persistence tests compare",
	"ml.Depth":                 "accessor: the only view of TreeConfig.MaxDepth being honoured",
	"fpzip.RelativeErrorBound": "accessor: the bound the precision tests assert against",
}

// ifaceMethods are method names that satisfy std-lib interfaces (Unwrap is
// reached through errors.Is/As) or compress.Compressor; their callers reach
// them through the interface, which the type checker cannot follow.
var ifaceMethods = strings.Fields("Unwrap")

// moduleImporter type-checks the module's packages from source on demand and
// hands everything else to the standard library importer. Every package
// records into one types.Info, so its Uses map is the module's references.
type moduleImporter struct {
	module string
	fset   *token.FileSet
	files  map[string][]*ast.File // import path → non-test files
	pkgs   map[string]*types.Package
	info   *types.Info
	std    types.Importer
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	if p != m.module && !strings.HasPrefix(p, m.module+"/") {
		return m.std.Import(p)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, m.files[p], m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p] = pkg
	return pkg, nil
}

// loadModule type-checks every non-test package of the module from source
// and returns the importer, whose info records the module's references, and
// the module path.
func loadModule(t *testing.T) (*moduleImporter, string) {
	t.Helper()
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(m)
		}
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		module: module,
		fset:   fset,
		files:  map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Uses: map[*ast.Ident]types.Object{}},
		std:    importer.Default(),
	}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := path.Join(module, filepath.ToSlash(dir))
		m.files[imp] = append(m.files[imp], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range m.files {
		if _, err := m.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	return m, module
}

// TestEveryInternalExportHasAConsumer is the surface audit as a rule: every
// exported top-level func, type, const and var, and every exported method of
// a named type, declared in a non-test file under internal/ is used by some
// non-test .go file of the module (bench/, cmd/ and examples/ count as
// consumers; internal/compress/compresstest, a test-support package, is
// exempt). The module is type-checked, so a use is a reference to that very
// object: a method or function sharing a name with a live one cannot hide.
func TestEveryInternalExportHasAConsumer(t *testing.T) {
	if len(auditSeams) > 8 {
		t.Fatalf("%d allowlist entries, at most 8", len(auditSeams))
	}
	m, module := loadModule(t)
	fset := m.fset
	used := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	// A method is also reached through any interface its type satisfies
	// that has a method of its name: a module interface if that method is
	// used, any other interface (heap.Interface, http.ResponseWriter) always.
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && types.IsInterface(n) && n.TypeParams() == nil &&
					n.Underlying().(*types.Interface).IsMethodSet() {
					ifaces = append(ifaces, n)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			collect(imp)
		}
	}
	for _, pkg := range m.pkgs {
		collect(pkg)
	}
	reached := func(recv types.Type, fn *types.Func) bool {
		if used[fn] || slices.Contains(ifaceMethods, fn.Name()) {
			return true
		}
		for _, n := range ifaces {
			it := n.Underlying().(*types.Interface)
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if im.Name() != fn.Name() || !(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					continue
				}
				if p := im.Pkg(); used[im] || p == nil || !strings.HasPrefix(p.Path(), module) {
					return true
				}
			}
		}
		return false
	}
	for p, pkg := range m.pkgs {
		if !strings.HasPrefix(p, module+"/internal/") || strings.Contains(p, "compresstest") {
			continue
		}
		flag := func(obj types.Object, name string) {
			if _, seam := auditSeams[pkg.Name()+"."+obj.Name()]; !seam {
				t.Errorf("%s: %s.%s has no non-test reference", fset.Position(obj.Pos()), pkg.Name(), name)
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				flag(obj, name)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !ok || !isType || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() && !reached(named, fn) {
					flag(fn, name+"."+fn.Name())
				}
			}
		}
	}
}

// TestEveryOptionHasACaller holds the module to one option rule: every
// exported field of an exported struct type named Config, ending in Config,
// or named Options, declared in a non-test file, is written by a caller —
// a non-test .go file outside examples/ other than the file that declares
// the type, as a composite-literal key, an assignment target or an &x.F
// operand — or is used by bench/, or is named Seed (the reproducibility
// input of a stochastic stage). A field only its own file writes holds one
// value, and the value belongs in a constant.
func TestEveryOptionHasACaller(t *testing.T) {
	m, module := loadModule(t)
	fileOf := func(pos token.Pos) string { return filepath.ToSlash(m.fset.Position(pos).Filename) }
	fieldOf := func(id *ast.Ident) *types.Var {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	written := map[*types.Var][]string{} // field → files that write it
	benchUsed := map[*types.Var]bool{}
	for _, files := range m.files {
		for _, f := range files {
			name := fileOf(f.Pos())
			if strings.HasPrefix(name, "examples/") {
				continue
			}
			write := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					if v := fieldOf(sel.Sel); v != nil {
						written[v] = append(written[v], name)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v := fieldOf(id); v != nil {
							written[v] = append(written[v], name)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.Ident:
					if v := fieldOf(n); v != nil && strings.HasPrefix(name, "bench/") {
						benchUsed[v] = true
					}
				}
				return true
			})
		}
	}
	checked := 0
	for p, pkg := range m.pkgs {
		if !strings.HasPrefix(p, module) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() ||
				!(strings.HasSuffix(name, "Config") || name == "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			decl := fileOf(tn.Pos())
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() || fld.Name() == "Seed" || benchUsed[fld] {
					continue
				}
				checked++
				if !slices.ContainsFunc(written[fld], func(f string) bool { return f != decl }) {
					t.Errorf("%s: %s.%s.%s is set by no caller outside %s; make it a constant",
						m.fset.Position(fld.Pos()), pkg.Name(), name, fld.Name(), decl)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no option fields found: the audit is not looking where the options are")
	}
}
