package mess_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

const modulePath = "github.com/mess-sim/mess"

// TestInternalExportsAreNamed keeps deleted code deleted: every exported
// top-level function and type of an internal/ package, and every exported
// method of its exported types, must be named by a non-test file of the
// module or by any file of benchmark/, tests included (the benchmark changes
// only with itself). Names are resolved with go/types, so a homonym names
// nothing: a function, type or method is named when some naming file uses
// that very object (a generic one through any of its instances). A method
// also counts as named when a naming file calls the method of that name of
// a named interface its type, or a pointer to it, implements (mem.Backend's
// Access, curvestore's Load and Save, bench's unexported rowStatser), or
// when its type implements an interface of a standard package the module
// imports, or error: the standard library calls those (String, ServeHTTP,
// RoundTrip) where no file of ours names them. An unnamed interface, such
// as a type switch's probe for a Len method, would match any type with the
// method and counts for nothing. Methods of unexported types, which only an
// interface can reach, are exempt; methods of the types the root package
// aliases are not, since an alias does not name a method.
// testdata/testonly.txt is the reviewed allowlist of seams tests use to
// observe something else, one "pkg.Name" or "pkg.Type.Method" a line
// followed by its reason; a line that stops being needed fails the test too.
func TestInternalExportsAreNamed(t *testing.T) {
	prog := loadProgram(t)

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{} // interfaces whose methods are called
	for id, obj := range prog.info.Uses {
		if !prog.naming(id.Pos()) {
			continue
		}
		obj = origin(obj)
		used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				// An unnamed interface (a type switch probing for Len)
				// would match any type with the method.
				if named, ok := recv.Type().(*types.Named); ok && types.IsInterface(named) {
					ifaces[named.Underlying().(*types.Interface)] = true
				}
			}
		}
	}
	// The standard library calls the methods of its own interfaces.
	std := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	for _, p := range prog.pkgs {
		for _, imp := range p.types.Imports() {
			if inModule(imp.Path()) {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					std[tn.Type().Underlying().(*types.Interface)] = true
				}
			}
		}
	}
	implemented := func(named *types.Named, m *types.Func) bool {
		for _, set := range []map[*types.Interface]bool{ifaces, std} {
			for iface := range set {
				if hasMethod(iface, m.Name()) && types.Implements(types.NewPointer(named), iface) {
					return true
				}
			}
		}
		return false
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
	for _, p := range prog.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				check(p.name+"."+name, used[obj])
			case *types.TypeName:
				check(p.name+"."+name, used[obj])
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						check(p.name+"."+name+"."+m.Name(), used[m] || implemented(named, m))
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
// exported field of an exported struct of an internal/ package that is a
// …Config or …Options, or that some non-test composite literal builds, must
// be set by a non-test file of the module or of benchmark/. Fields are
// resolved with go/types, so a set field of the same name in another struct
// sets nothing here. A field is set by a composite-literal key, as the target
// of an assignment or of ++/--, by taking its address (&x.F, as flag binding
// does), or by calling a pointer method on it. Filling in a default is not
// setting: writes inside a withDefaults function or method do not count, nor
// does x.F = … in the body of an `if` whose condition tests x.F == 0 or
// x.F <= 0 (0 standing for the type's zero value). A field nothing sets has
// one value: make it a constant, or delete it with the path it selected.
// testdata/unset.txt is the reviewed list of exceptions, one
// "pkg.Type.Field" a line followed by its reason (fingerprinted fields,
// ablation switches and clocks that only tests set); a line whose field gains
// a caller, or disappears, fails the test too.
func TestConfigFieldsAreSet(t *testing.T) {
	prog := loadProgram(t)

	built := map[*types.TypeName]bool{} // struct types a composite literal builds
	set := map[*types.Var]bool{}
	field := func(e ast.Expr) *types.Var {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := prog.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var).Origin()
		}
		return nil
	}
	// guarded holds the x.F (as source text) an enclosing `if` tests for zero.
	var walk func(n ast.Node, guarded map[string]bool)
	walk = func(n ast.Node, guarded map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Name.Name != "withDefaults"
			case *ast.IfStmt:
				inner := zeroTests(prog.info, n.Cond, guarded)
				for _, part := range []ast.Node{n.Init, n.Cond, n.Else} {
					if part != nil {
						walk(part, guarded)
					}
				}
				walk(n.Body, inner)
				return false
			case *ast.CompositeLit:
				if named, ok := prog.info.TypeOf(n).(*types.Named); ok {
					built[named.Origin().Obj()] = true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := prog.info.Uses[key].(*types.Var); ok && v.IsField() {
								set[v.Origin()] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if f := field(lhs); f != nil && !guarded[types.ExprString(unparen(lhs))] {
						set[f] = true
					}
				}
			case *ast.IncDecStmt:
				if f := field(n.X); f != nil {
					set[f] = true
				}
			case *ast.UnaryExpr:
				if f := field(n.X); f != nil && n.Op == token.AND {
					set[f] = true
				}
			case *ast.CallExpr:
				// x.F.M() with M on *T takes &x.F.
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if s := prog.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrField := prog.info.TypeOf(sel.X).Underlying().(*types.Pointer)
					if f := field(sel.X); f != nil && ptrRecv && !ptrField {
						set[f] = true
					}
				}
			}
			return true
		})
	}
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			if !f.test {
				walk(f.ast, nil)
			}
		}
	}

	allowed := readAllowlist(t, "testdata/unset.txt")
	var unset []string
	for _, p := range prog.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !obj.Exported() || obj.IsAlias() {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || !(built[obj] || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				id := p.name + "." + name + "." + f.Name()
				switch {
				case !set[f] && !allowed[id]:
					unset = append(unset, id)
				case set[f] && allowed[id]:
					t.Errorf("testdata/unset.txt lists %s, which non-test code sets; drop the line", id)
				}
				delete(allowed, id)
			}
		}
	}
	sort.Strings(unset)
	for _, id := range unset {
		t.Errorf("%s is set by no non-test file: make it a constant or delete it with what it selects, or list it in testdata/unset.txt with the reason it stays", id)
	}
	for id := range allowed {
		t.Errorf("testdata/unset.txt lists %s, which is not an exported field of a checked struct of internal/", id)
	}
}

// zeroTests extends guarded with each x.F that cond compares with its
// type's zero value through == or <=.
func zeroTests(info *types.Info, cond ast.Expr, guarded map[string]bool) map[string]bool {
	inner := map[string]bool{}
	for k := range guarded {
		inner[k] = true
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.LEQ) {
			return true
		}
		if _, ok := unparen(b.X).(*ast.SelectorExpr); ok && isZero(info.Types[b.Y]) {
			inner[types.ExprString(unparen(b.X))] = true
		}
		return true
	})
	return inner
}

// isZero reports whether tv is nil or a constant zero, "" or false.
func isZero(tv types.TypeAndValue) bool {
	if tv.IsNil() {
		return true
	}
	switch v := tv.Value; {
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	default:
		return constant.Sign(v) == 0
	}
}

// TestFieldsAreRead keeps write-only state out, the counterpart of
// TestConfigFieldsAreSet: every field of a named struct type declared under
// internal/ or cmd/ must be read by a non-test file of the module or by any
// file of benchmark/. Fields are resolved with go/types, so a read field of
// the same name in another struct reads nothing here. Any use of a field is
// a read but three writes: the target of an assignment (compound ones
// included), the target of ++/--, and a composite-literal key. A field with
// a json tag counts as read, since the encoder reads it. Embedded fields are
// exempt: a promoted selection reads through them without naming them.
// testdata/unread.txt is the reviewed list of exceptions, one
// "pkg.Type.Field" a line followed by its reason; a line whose field gains a
// reader, or disappears, fails the test too.
func TestFieldsAreRead(t *testing.T) {
	prog := loadProgram(t)

	writes := map[*ast.Ident]bool{} // field names written, not read, where they stand
	target := func(e ast.Expr) {
		if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						writes[key] = true
					}
				}
				return true
			})
		}
	}
	read := map[*types.Var]bool{}
	for id, obj := range prog.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] && prog.naming(id.Pos()) {
			read[v.Origin()] = true
		}
	}

	allowed := readAllowlist(t, "testdata/unread.txt")
	var unread []string
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") && !strings.HasPrefix(p.dir, "cmd/") {
			continue
		}
		for _, f := range p.files {
			if f.test {
				continue
			}
			for _, decl := range f.ast.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					spec, ok := n.(*ast.TypeSpec)
					if !ok || spec.Assign.IsValid() {
						return true
					}
					st, ok := prog.info.Defs[spec.Name].Type().Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i := 0; i < st.NumFields(); i++ {
						fld := st.Field(i)
						id := p.name + "." + spec.Name.Name + "." + fld.Name()
						tag, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
						isRead := fld.Embedded() || read[fld] || tagged && tag != "-"
						switch {
						case !isRead && !allowed[id]:
							unread = append(unread, id)
						case isRead && allowed[id]:
							t.Errorf("testdata/unread.txt lists %s, which non-test code reads; drop the line", id)
						}
						delete(allowed, id)
					}
					return true
				})
			}
		}
	}
	sort.Strings(unread)
	for _, id := range unread {
		t.Errorf("%s is read by no non-test file: delete it with what writes it, or list it in testdata/unread.txt with the reason it stays", id)
	}
	for id := range allowed {
		t.Errorf("testdata/unread.txt lists %s, which is not a field of a named struct of internal/ or cmd/", id)
	}
}

// TestPipelinesAssembledOnce keeps each component's pipeline in the package
// that owns it (the list is in the internal/exp package doc): non-test code
// outside benchmark/ builds a model backend through memmodel.Factory, never
// by calling memmodel.New or messsim.New inside a function literal of its
// own, where an unknown kind can only panic; captures a sweep point's trace
// through trace.CapturePoint, never by wrapping trace.NewCapture itself;
// profiles an application through profile.Run or profile.Record (the
// facade re-exports NewSampler); and registers -cache-dir once, in
// cli.CacheFlags.
func TestPipelinesAssembledOnce(t *testing.T) {
	prog := loadProgram(t)
	cacheDirFlags := 0
	for _, p := range prog.pkgs {
		if p.dir == "benchmark" {
			continue
		}
		for _, f := range p.files {
			if f.test {
				continue
			}
			// callee is "dir.Name" for a call of another module package's
			// function or method and "pkg.Name" for a standard one.
			callee := func(call *ast.CallExpr) string {
				var id *ast.Ident
				switch fun := unparen(call.Fun).(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return ""
				}
				fn, ok := prog.info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg() == p.types {
					return ""
				}
				return strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modulePath), "/") + "." + fn.Name()
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
						case inLiteral && p.dir != "internal/memmodel" && (name == "internal/memmodel.New" || name == "internal/messsim.New"):
							t.Errorf("%s: %s called inside a function literal; build the backend factory with memmodel.Factory", f.path, name)
						case name == "internal/trace.NewCapture":
							t.Errorf("%s: calls trace.NewCapture; capture a sweep point with trace.CapturePoint", f.path)
						case name == "internal/profile.NewSampler" && f.path != "facade.go":
							t.Errorf("%s: calls profile.NewSampler; profile an application with profile.Run or profile.Record", f.path)
						case strings.HasPrefix(name, "flag."):
							for _, arg := range n.Args[:min(2, len(n.Args))] {
								if lit, ok := arg.(*ast.BasicLit); ok && lit.Value == `"cache-dir"` {
									cacheDirFlags++
								}
							}
						}
					}
					return true
				})
			}
			inspect(f.ast, false)
		}
	}
	if cacheDirFlags != 1 {
		t.Errorf("-cache-dir is registered %d times, want once (cli.CacheFlags)", cacheDirFlags)
	}
}

// program is the module type-checked from source: every package of non-test
// files, and benchmark/ with its tests, sharing one types.Info.
type program struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  []*typedPkg // in directory order
	files map[*token.File]srcFile
}

// typedPkg is one type-checked package of the module.
type typedPkg struct {
	dir   string // slash-separated, relative to the module root
	name  string // the directory's last element
	types *types.Package
	files []srcFile
}

// srcFile is one parsed Go file of the module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	ast  *ast.File
	test bool
}

// internal lists the packages under internal/.
func (p *program) internal() []*typedPkg {
	var out []*typedPkg
	for _, pkg := range p.pkgs {
		if strings.HasPrefix(pkg.dir, "internal/") {
			out = append(out, pkg)
		}
	}
	return out
}

// naming reports whether pos lies in a file whose uses count: a non-test
// file, or any file of benchmark/.
func (p *program) naming(pos token.Pos) bool {
	f := p.files[p.fset.File(pos)]
	return f.ast != nil && (!f.test || strings.HasPrefix(f.path, "benchmark/"))
}

// loadProgram type-checks the module once per test binary.
var loadProgram = func() func(t *testing.T) *program {
	load := sync.OnceValues(typeCheckModule)
	return func(t *testing.T) *program {
		prog, err := load()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
}()

// typeCheckModule parses every Go file under the module root that the build
// context selects, benchmark/ included, skipping testdata and dot
// directories, and type-checks each directory's package. Module imports are
// checked from source; the standard library comes from the compiler's
// export data.
func typeCheckModule() (*program, error) {
	prog := &program{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		files: map[*token.File]srcFile{},
	}
	byDir := map[string][]srcFile{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		test := strings.HasSuffix(name, "_test.go")
		slashDir := path.Clean(filepath.ToSlash(dir))
		if test && slashDir != "benchmark" {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean("./"+dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(prog.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := srcFile{filepath.ToSlash(p), f, test}
		prog.files[prog.fset.File(f.Pos())] = sf
		byDir[slashDir] = append(byDir[slashDir], sf)
		return nil
	})
	if err != nil {
		return nil, err
	}

	checked := map[string]*typedPkg{}
	std := importer.ForCompiler(prog.fset, "gc", nil)
	var check func(dir string) (*typedPkg, error)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if !inModule(importPath) {
			return std.Import(importPath)
		}
		p, err := check(strings.TrimPrefix(strings.TrimPrefix(importPath, modulePath), "/"))
		if err != nil {
			return nil, err
		}
		return p.types, nil
	})
	check = func(dir string) (*typedPkg, error) {
		if dir == "" {
			dir = "."
		}
		if p := checked[dir]; p != nil {
			return p, nil
		}
		files := byDir[dir]
		if len(files) == 0 {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		var asts []*ast.File
		for _, f := range files {
			if f.ast.Name.Name != files[0].ast.Name.Name {
				return nil, fmt.Errorf("%s: package %s beside package %s", f.path, f.ast.Name.Name, files[0].ast.Name.Name)
			}
			asts = append(asts, f.ast)
		}
		importPath := modulePath
		if dir != "." {
			importPath += "/" + dir
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(importPath, prog.fset, asts, prog.info)
		if err != nil {
			return nil, err
		}
		p := &typedPkg{dir: dir, name: path.Base(dir), types: tp, files: files}
		checked[dir] = p
		return p, nil
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		p, err := check(dir)
		if err != nil {
			return nil, err
		}
		prog.pkgs = append(prog.pkgs, p)
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func inModule(importPath string) bool {
	return importPath == modulePath || strings.HasPrefix(importPath, modulePath+"/")
}

// origin is the generic object an instantiated function, method or field
// comes from, and obj itself for anything else.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
