package mess_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the package's current exports")

// TestExportsMatchAPIFile lists every exported package-level identifier of
// the root package, one "kind Name" line each, and holds the list to
// testdata/api.txt: the facade cannot grow, shrink or rename an export
// without that file changing in the same diff. Regenerate with
// go test -run TestExportsMatchAPIFile -update .
func TestExportsMatchAPIFile(t *testing.T) {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(kind string, name *ast.Ident) {
		if name.IsExported() {
			lines = append(lines, kind+" "+name.Name)
		}
	}
	for _, f := range pkgs["mess"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil { // methods come with their type
					add("func", d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(strings.ToLower(d.Tok.String()), name)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/api.txt"
	if *updateAPI {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the package exports %d identifiers, %s lists %d; review the difference and regenerate with -update:\n%s",
			len(lines), path, strings.Count(string(want), "\n"), lineDiff(string(want), got))
	}
}

// lineDiff reports the lines only one of two sorted lists holds.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
