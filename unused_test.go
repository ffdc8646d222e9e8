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
// .Name selector or interface method of that name anywhere. Methods of
// unexported types, which only an interface can reach, are exempt; methods
// of the types the root package aliases are not, since an alias does not
// name a method.
// testdata/testonly.txt is the reviewed allowlist of seams tests use to
// observe something else, one "pkg.Name" or "pkg.Type.Method" a line
// followed by its reason; a line that stops being needed fails the test too.
func TestInternalExportsAreNamed(t *testing.T) {
	files := moduleFiles(t)

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

	allowed := readAllowlist(t, "testdata/testonly.txt")

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
				if !ast.IsExported(recv) {
					continue // reached through an interface only
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

// readAllowlist reads a reviewed-exceptions file: the first field of each
// line that is not a # comment is an identifier, the rest of the line the
// reason it is excepted, which every line must give.
func readAllowlist(t *testing.T, path string) map[string]bool {
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	allowed := map[string]bool{}
	for sc := bufio.NewScanner(fh); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) == 1 {
			t.Errorf("%s lists %s without a reason", path, fields[0])
		}
		allowed[fields[0]] = true
	}
	return allowed
}

// TestConfigFieldsAreSet keeps the count of settable values honest: every
// exported field of an exported …Config or …Options struct of an internal/
// package must be written — as a composite-literal key or the target of an
// assignment — by a non-test file of the module or of benchmark/. Filling in
// a default is not setting: writes inside the struct's own withDefaults
// method, and an assignment to x.F under an `if` whose condition reads x.F
// (how constructors default a field), do not count. A field nothing sets has
// one value: make it a constant, or delete it with the path it selected.
// Like its neighbour the test only parses. A key of a literal of a named type
// (T{F: …}, pkg.T{F: …}, through type aliases) sets that type's field only;
// an assignment, or a key of a literal whose type is elided or unnamed, is
// matched by field name, so there a field hides behind a set field of the
// same name in another struct.
// testdata/unset.txt is the reviewed list of exceptions, one
// "pkg.Type.Field" a line followed by its reason (fingerprinted fields,
// ablation switches and clocks that only tests set); a line whose field gains
// a caller, or disappears, fails the test too.
func TestConfigFieldsAreSet(t *testing.T) {
	files := moduleFiles(t)

	aliases := typeAliases(files)
	set := map[string]bool{}      // field names some non-test file writes
	setTyped := map[string]bool{} // "dir.Type.Field" keyed in a literal of that type
	for _, f := range files {
		if f.test {
			continue
		}
		imports := importDirs(f.ast)
		var inspect func(n ast.Node, guarded map[string]bool)
		inspect = func(n ast.Node, guarded map[string]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return n.Name.Name != "withDefaults"
				case *ast.IfStmt:
					// The fields the condition reads are guarded in the body.
					inner := map[string]bool{}
					for name := range guarded {
						inner[name] = true
					}
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if sel, ok := c.(*ast.SelectorExpr); ok {
							inner[sel.Sel.Name] = true
						}
						return true
					})
					if n.Init != nil {
						inspect(n.Init, guarded)
					}
					inspect(n.Body, inner)
					if n.Else != nil {
						inspect(n.Else, guarded)
					}
					return false
				case *ast.CompositeLit:
					typ := namedType(n.Type, f.dir, imports, aliases)
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok {
							if typ != "" {
								setTyped[typ+"."+key.Name] = true
							} else {
								set[key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && !guarded[sel.Sel.Name] {
							set[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
		inspect(f.ast, nil)
	}

	allowed := readAllowlist(t, "testdata/unset.txt")
	var unset []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(f.dir, "internal/")
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					id := pkg + "." + ts.Name.Name + "." + name.Name
					isSet := set[name.Name] || setTyped[f.dir+"."+ts.Name.Name+"."+name.Name]
					switch {
					case !name.IsExported():
					case !isSet && !allowed[id]:
						unset = append(unset, id)
					case isSet && allowed[id]:
						t.Errorf("testdata/unset.txt lists %s, which non-test code sets; drop the line", id)
					}
					delete(allowed, id)
				}
			}
			return true
		})
	}
	sort.Strings(unset)
	for _, id := range unset {
		t.Errorf("%s is set by no non-test file: make it a constant or delete it with what it selects, or list it in testdata/unset.txt with the reason it stays", id)
	}
	for id := range allowed {
		t.Errorf("testdata/unset.txt lists %s, which is not an exported field of a Config or Options struct of internal/", id)
	}
}

// typeAliases maps each type alias declared by a non-test file, as
// "dir.Name", to the named type it stands for.
func typeAliases(files []srcFile) map[string]string {
	aliases := map[string]string{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := importDirs(f.ast)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
				if target := namedType(ts.Type, f.dir, imports, nil); target != "" {
					aliases[f.dir+"."+ts.Name.Name] = target
				}
			}
			return true
		})
	}
	return aliases
}

// namedType is "dir.Name" for a type expression naming a type of this module
// (T in dir, or pkg.T of an imported package), followed through aliases, and
// "" for anything else: an elided, unnamed or generic type.
func namedType(e ast.Expr, dir string, imports, aliases map[string]string) string {
	var typ string
	switch x := e.(type) {
	case *ast.Ident:
		typ = dir + "." + x.Name
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
			typ = imports[pkg.Name] + "." + x.Sel.Name
		}
	}
	for aliases[typ] != "" {
		typ = aliases[typ]
	}
	return typ
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
