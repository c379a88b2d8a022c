package fxrz_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// ifaceMethods are method names that satisfy std-lib interfaces or
// compress.Compressor; their callers reach them through the interface.
var ifaceMethods = strings.Fields("String Error Read Write Close ServeHTTP Len Less Swap Name Axis Compress Decompress")

// TestEveryInternalExportHasAConsumer is the surface audit as a rule: every
// exported top-level func, method, type, const and var declared in a non-test
// file under internal/ is named by at least one identifier in a non-test .go
// file of the module other than a declaration (bench/, cmd/ and examples/
// count as consumers; internal/compress/compresstest, a test-support package,
// is exempt). It matches by bare name without type checking, so a name
// collision can hide a dead name but never flag a live one.
func TestEveryInternalExportHasAConsumer(t *testing.T) {
	if len(auditSeams) > 8 {
		t.Fatalf("%d allowlist entries, at most 8", len(auditSeams))
	}
	type export struct{ where, name string } // name is "package.Name"
	var exports []export
	refs := map[string]bool{} // names some non-declaring identifier uses
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		audited := strings.HasPrefix(filepath.ToSlash(path), "internal/") && !strings.Contains(path, "compresstest")
		declared := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident) {
			declared[id] = true
			if audited && id.IsExported() {
				exports = append(exports, export{fset.Position(id.Pos()).String(), f.Name.Name + "." + id.Name})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil || !slices.Contains(ifaceMethods, decl.Name.Name) {
					declare(decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		_, bare, _ := strings.Cut(e.name, ".")
		if _, seam := auditSeams[e.name]; !seam && !refs[bare] {
			t.Errorf("%s: %s has no non-test reference", e.where, e.name)
		}
	}
}
