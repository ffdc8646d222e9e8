package mess_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/mess-sim/mess"

// TestInternalExportsAreNamed keeps deleted code deleted: every exported
// top-level function, method and type of an internal/ package must be named
// by a non-test file of the module or by a file of benchmark/ (which no
// ordinary PR may edit, tests included). It only parses, so it matches by
// name: a function or type is named by its identifier in its own package or
// by pkg.Name in a file importing that package; a method is named by any
// .Name selector or interface method of that name anywhere. Methods of the
// types the root package aliases are the module's public API and exempt, as
// are methods of unexported types, which only an interface can reach.
// testdata/testonly.txt is the reviewed allowlist of seams tests use to
// observe something else, one "pkg.Name" or "pkg.Type.Method" a line
// followed by its reason; a line that stops being needed fails the test too.
func TestInternalExportsAreNamed(t *testing.T) {
	files := moduleFiles(t)

	// What the root package aliases, as "dir.Type".
	public := map[string]bool{}
	for _, f := range files {
		if f.dir != "." || f.test {
			continue
		}
		imports := importDirs(f.ast)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						public[imports[x.Name]+"."+sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}

	// Names used: "dir.Name" for package-level names, ".Name" for selectors
	// and interface methods that may be a method.
	used := map[string]bool{}
	for _, f := range files {
		if f.test && f.dir != "benchmark" {
			continue
		}
		imports := importDirs(f.ast)
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						declared[ts.Name] = true
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
				used["."+n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						used["."+name.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[f.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	allowed := map[string]bool{}
	if fh, err := os.Open("testdata/testonly.txt"); err != nil {
		t.Fatal(err)
	} else {
		defer fh.Close()
		for sc := bufio.NewScanner(fh); sc.Scan(); {
			if fields := strings.Fields(sc.Text()); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
				allowed[fields[0]] = true
			}
		}
	}

	var unnamed []string
	check := func(id string, isUsed bool) {
		switch {
		case !isUsed && !allowed[id]:
			unnamed = append(unnamed, id)
		case isUsed && allowed[id]:
			t.Errorf("testdata/testonly.txt lists %s, which non-test code names; drop the line", id)
		}
		delete(allowed, id)
	}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(f.dir, "internal/")
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					check(pkg+"."+d.Name.Name, used[f.dir+"."+d.Name.Name])
					continue
				}
				recv := receiverName(d.Recv.List[0].Type)
				if !ast.IsExported(recv) || public[f.dir+"."+recv] {
					continue // reached through an interface only, or public API
				}
				check(pkg+"."+recv+"."+d.Name.Name, used["."+d.Name.Name])
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						check(pkg+"."+ts.Name.Name, used[f.dir+"."+ts.Name.Name])
					}
				}
			}
		}
	}
	sort.Strings(unnamed)
	for _, id := range unnamed {
		t.Errorf("%s is named by no non-test file: delete it, or list it in testdata/testonly.txt with the reason tests need it", id)
	}
	for id := range allowed {
		t.Errorf("testdata/testonly.txt lists %s, which is not an exported function, method or type of internal/", id)
	}
}

// srcFile is one parsed Go file of the module.
type srcFile struct {
	dir  string // slash-separated, relative to the module root
	path string
	ast  *ast.File
	test bool
}

// moduleFiles parses every Go file under the module root, benchmark/
// included, skipping testdata and dot directories.
func moduleFiles(t *testing.T) []srcFile {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(filepath.Dir(path)), filepath.ToSlash(path), f, strings.HasSuffix(path, "_test.go")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPipelinesAssembledOnce keeps each component's pipeline in the package
// that owns it (the list is in the internal/exp package doc): non-test code
// outside benchmark/ builds a model backend through memmodel.Factory, never
// by calling memmodel.New or messsim.New inside a function literal of its
// own, where an unknown kind can only panic; captures a sweep point's trace
// through trace.CapturePoint, never by wrapping trace.NewCapture itself;
// profiles an application through profile.Run (the facade re-exports
// NewSampler); and registers -cache-dir once, in cli.CacheFlags. Like its
// neighbour it only parses.
func TestPipelinesAssembledOnce(t *testing.T) {
	cacheDirFlags := 0
	for _, f := range moduleFiles(t) {
		if f.test || strings.HasPrefix(f.dir, "benchmark") {
			continue
		}
		imports := importDirs(f.ast)
		// callee is "dir.Name" for a call of an imported package's function.
		callee := func(call *ast.CallExpr) string {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + sel.Sel.Name
				}
			}
			return ""
		}
		var inspect func(n ast.Node, inLiteral bool)
		inspect = func(n ast.Node, inLiteral bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					if !inLiteral {
						inspect(n.Body, true)
						return false
					}
				case *ast.CallExpr:
					switch name := callee(n); {
					case inLiteral && f.dir != "internal/memmodel" && (name == "internal/memmodel.New" || name == "internal/messsim.New"):
						t.Errorf("%s: %s called inside a function literal; build the backend factory with memmodel.Factory", f.path, name)
					case name == "internal/trace.NewCapture":
						t.Errorf("%s: calls trace.NewCapture; capture a sweep point with trace.CapturePoint", f.path)
					case name == "internal/profile.NewSampler" && f.path != "facade.go":
						t.Errorf("%s: calls profile.NewSampler; profile an application with profile.Run", f.path)
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" {
							for _, arg := range n.Args[:min(2, len(n.Args))] {
								if lit, ok := arg.(*ast.BasicLit); ok && lit.Value == `"cache-dir"` {
									cacheDirFlags++
								}
							}
						}
					}
				}
				return true
			})
		}
		inspect(f.ast, false)
	}
	if cacheDirFlags != 1 {
		t.Errorf("-cache-dir is registered %d times, want once (cli.CacheFlags)", cacheDirFlags)
	}
}

// importDirs maps the local name of each of the file's imports of this
// module to the package's directory.
func importDirs(f *ast.File) map[string]string {
	dirs := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
			continue
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dirs[name] = dir
	}
	return dirs
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
