package stateowned

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the module path go.mod declares; imports under it name
// the repository's own packages.
const modulePath = "stateowned"

// goFile is one parsed Go file, named by its slash-separated path from
// the module root.
type goFile struct {
	path string
	f    *ast.File
}

// parseSources parses every non-test Go file in the repository, the
// perfbench module's included, with comments.
func parseSources(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && d.Name() != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 20 {
		t.Fatalf("only %d source files found; walk broken?", len(paths))
	}
	fset := token.NewFileSet()
	files := make([]goFile, 0, len(paths))
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		files = append(files, goFile{filepath.ToSlash(p), f})
	}
	return fset, files
}

// TestExportedIdentifiersDocumented walks every non-test Go file in the
// repository and requires a doc comment on each exported declaration —
// the deliverable's "doc comments on every public item" requirement,
// enforced mechanically.
func TestExportedIdentifiersDocumented(t *testing.T) {
	fset, files := parseSources(t)
	var missing []string
	for _, gf := range files {
		f := gf.f
		// main packages document behavior in the command comment.
		isMain := f.Name.Name == "main"
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if isMain || !d.Name.IsExported() {
					continue
				}
				if d.Doc == nil {
					missing = append(missing, pos(fset, d.Pos())+" func "+d.Name.Name)
				}
			case *ast.GenDecl:
				if isMain {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							missing = append(missing, pos(fset, s.Pos())+" type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && d.Doc == nil && s.Doc == nil {
								missing = append(missing, pos(fset, n.Pos())+" value "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

// testOnlyAllowed names the exported functions that no non-test file
// calls and that stay exported anyway, each with the reason.
var testOnlyAllowed = map[string]string{
	"serve.ASNList.MarshalJSON":   "encoding/json calls it to encode ASN lists",
	"stateowned.SetBuildHook":     "fault seam: the snapshot tests fail or panic a pipeline node",
	"snapshot.Store.SetBuildHook": "fault seam: the root and fleet tests fail or panic a generation build",
	"serve.New":                   "static one-index server for the root package's serving tests",
	"durable.NewMemFS":            "in-memory archive file system for the snapshot and fleet tests",
	"durable.MemFS.Crash":         "crash simulation for the snapshot and fleet recovery tests",
	"durable.MemFS.FlipBit":       "corruption injection for the snapshot recovery tests",
	"durable.MemFS.FileLen":       "corruption targeting for the snapshot recovery tests",
	"durable.NewFaultFS":          "fault-injecting archive file system for the snapshot and fleet tests",
	"durable.FaultFS.Ops":         "operation count for the snapshot and fleet crash-point sweeps",
	"durable.FaultFS.SetCrashAt":  "crash-point arming for the fleet recovery tests",
	"topology.FromEdges":          "hand-shaped topologies for the bgp kernel tests",
	"topology.Graph.Peers":        "peer lists for the bgp and graph tests' path oracles",
	"topology.Graph.CustomerCone": "cone oracle for the bgp, graph and topology tests and a root benchmark",
	"bgp.ReplayPaths":             "hand-written RIB views for the cti golden test",
}

// TestNoTestOnlyExports fails on an exported function of a non-main
// package that nothing but tests reaches: such code costs lines and
// review without serving the program. A function a test needs as its
// oracle belongs in that test's file; testOnlyAllowed lists the rest.
func TestNoTestOnlyExports(t *testing.T) {
	fset, files := parseSources(t)
	flagged, stale := testOnlyExports(fset, files, testOnlyAllowed)
	for _, f := range flagged {
		t.Errorf("exported function reached only from tests: %s", f)
	}
	for _, k := range stale {
		t.Errorf("testOnlyAllowed entry %s names no test-only exported function", k)
	}
}

// testOnlyExports returns, sorted, each exported function or method of
// a non-main package in files that no non-test file references beyond
// its own declaration, as "path:line key", less the keys allow names;
// stale lists, sorted, the keys of allow that name no such function. A
// key is the package name, the receiver's type name for a method, and
// the function's name, dot-separated. A top-level function counts as
// referenced through a selector on an import of its package or through
// its bare name in a file of its own package; a method counts as
// referenced by any selector of its name. Every file, cmd/, examples/
// and perfbench/ included, counts as a caller unless it is a _test.go
// file.
func testOnlyExports(fset *token.FileSet, files []goFile, allow map[string]string) (flagged, stale []string) {
	// A ref names a top-level function by its package directory and name,
	// or a method by its name alone (dir "").
	type ref struct{ dir, name string }
	type fn struct{ key, at string }
	candidates := map[ref][]fn{}
	refs := map[ref]bool{}
	for _, gf := range files {
		if strings.HasSuffix(gf.path, "_test.go") {
			continue
		}
		f, dir := gf.f, path.Dir(gf.path)
		imports := map[string]string{} // local name -> package directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			switch {
			case p == modulePath:
				imports[name] = "."
			case strings.HasPrefix(p, modulePath+"/"):
				imports[name] = strings.TrimPrefix(p, modulePath+"/")
			}
		}
		for _, decl := range f.Decls {
			var self ref // a function's references to itself do not count
			walk := []ast.Node{decl}
			if d, ok := decl.(*ast.FuncDecl); ok {
				key := f.Name.Name + "." + d.Name.Name
				if self = (ref{dir, d.Name.Name}); d.Recv != nil {
					self.dir = ""
					recv := strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*")
					key = f.Name.Name + "." + recv + "." + d.Name.Name
				}
				if f.Name.Name != "main" && d.Name.IsExported() {
					at := gf.path + ":" + strconv.Itoa(fset.Position(d.Pos()).Line)
					candidates[self] = append(candidates[self], fn{key, at})
				}
				walk = []ast.Node{d.Type} // all of d but its name
				if d.Recv != nil {
					walk = append(walk, d.Recv)
				}
				if d.Body != nil {
					walk = append(walk, d.Body)
				}
			}
			add := func(r ref) {
				if r != self {
					refs[r] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if pkgDir, ok := imports[id.Name]; ok {
							add(ref{pkgDir, x.Sel.Name})
						}
					}
					add(ref{"", x.Sel.Name})
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					add(ref{dir, x.Name})
				}
				return true
			}
			for _, n := range walk {
				ast.Inspect(n, visit)
			}
		}
	}
	unreached := map[string]bool{}
	for r, fns := range candidates {
		if refs[r] {
			continue
		}
		for _, c := range fns {
			unreached[c.key] = true
			if _, ok := allow[c.key]; !ok {
				flagged = append(flagged, c.at+" "+c.key)
			}
		}
	}
	for k := range allow {
		if !unreached[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(flagged)
	sort.Strings(stale)
	return flagged, stale
}

// TestTestOnlyExportsFixture runs the lint on a small in-memory module:
// a library package lib whose exports are called from a non-test file,
// from a _test.go file only, and not at all, and a main package calling
// lib.
func TestTestOnlyExportsFixture(t *testing.T) {
	sources := map[string]string{
		"lib/lib.go": `package lib
func Used() int       { return Helper() }
func Helper() int     { return 1 }
func TestOnly() int   { return TestOnly() }
func Seam()           {}
type T struct{}
func (T) Called()     {}
func (T) Uncalled()   {}
func (T) Recurse()    { T{}.Recurse() }
func unexported()     {}
`,
		"lib/lib_test.go": `package lib
func use() { TestOnly(); Seam(); T{}.Uncalled(); T{}.Recurse() }
`,
		"cmd/tool/main.go": `package main
import l "` + modulePath + `/lib"
func main() { l.Used(); l.T{}.Called() }
func Exported() {}
`,
	}
	fset := token.NewFileSet()
	var files []goFile
	for p, src := range sources {
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		files = append(files, goFile{p, f})
	}
	for _, c := range []struct {
		name           string
		allow          map[string]string
		flagged, stale []string
	}{
		{"no allowlist", nil,
			[]string{"lib/lib.go:4 lib.TestOnly", "lib/lib.go:5 lib.Seam", "lib/lib.go:8 lib.T.Uncalled", "lib/lib.go:9 lib.T.Recurse"}, nil},
		{"allowlisted seam", map[string]string{"lib.Seam": "test seam"},
			[]string{"lib/lib.go:4 lib.TestOnly", "lib/lib.go:8 lib.T.Uncalled", "lib/lib.go:9 lib.T.Recurse"}, nil},
		{"stale entries", map[string]string{"lib.Seam": "test seam", "lib.Used": "called", "lib.Gone": "deleted"},
			[]string{"lib/lib.go:4 lib.TestOnly", "lib/lib.go:8 lib.T.Uncalled", "lib/lib.go:9 lib.T.Recurse"},
			[]string{"lib.Gone", "lib.Used"}},
	} {
		flagged, stale := testOnlyExports(fset, files, c.allow)
		if strings.Join(flagged, "\n") != strings.Join(c.flagged, "\n") || strings.Join(stale, "\n") != strings.Join(c.stale, "\n") {
			t.Errorf("%s: flagged %q, stale %q; want %q, %q", c.name, flagged, stale, c.flagged, c.stale)
		}
	}
}

func pos(fset *token.FileSet, p token.Pos) string {
	position := fset.Position(p)
	return position.Filename + ":" + strconv.Itoa(position.Line)
}
