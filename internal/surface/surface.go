// Package surface measures the exported surface of Go packages in this
// module: the non-test lines of each package, its exported declarations
// (top-level funcs, methods on exported types, types, and each const/var
// name), and which of those declarations, or of the exported fields of
// its exported struct types, no non-test file outside the package
// mentions. `make size` prints the first two; the root package's surface
// test fails on the third.
package surface

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Package is one measured package directory.
type Package struct {
	Dir    string // slash-separated, relative to the module root
	Lines  int    // lines of every non-_test.go file
	Decls  []Decl // exported declarations
	Fields []Decl // exported fields of exported struct types
}

// Decl is one exported declaration or struct field.
type Decl struct {
	Recv string // receiver type name for a method, struct type name for a field, else ""
	Name string
}

func (d Decl) String() string {
	if d.Recv != "" {
		return d.Recv + "." + d.Name
	}
	return d.Name
}

// Load measures the package in root/dir.
func Load(root, dir string) (Package, error) {
	p := Package{Dir: filepath.ToSlash(dir)}
	files, err := sourceFiles(filepath.Join(root, dir))
	if err != nil {
		return p, err
	}
	if len(files) == 0 {
		return p, fmt.Errorf("no Go files in %s", dir)
	}
	for _, name := range files {
		src, f, err := parse(name)
		if err != nil {
			return p, err
		}
		p.Lines += bytes.Count(src, []byte("\n"))
		p.Decls = append(p.Decls, exported(f)...)
		p.Fields = append(p.Fields, fields(f)...)
	}
	return p, nil
}

// Unused returns the exported declarations and fields of pkgs that no
// non-test file under root outside their own package mentions, as
// "pkg.Decl" strings in sorted order. A top-level name counts as
// mentioned when a file that imports its package qualifies it
// (live.Dial). A method or field counts when any selector, interface
// method or composite-literal key outside the package has its name, since
// the files are parsed without type information.
func Unused(root string, pkgs []Package) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	qualified := map[string]map[string]bool{} // import path -> names used as pkg.Name
	members := map[string]map[string]bool{}   // file dir -> selector, interface method and literal key names
	err = filepath.WalkDir(root, func(name string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSource(e.Name()) {
			return nil
		}
		_, f, err := parse(name)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(name))
		if err != nil {
			return err
		}
		mentions(f, filepath.ToSlash(rel), qualified, members)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var unused []string
	for _, p := range pkgs {
		for _, d := range slices.Concat(p.Decls, p.Fields) {
			used := qualified[module+"/"+p.Dir][d.Name]
			if d.Recv != "" {
				for dir, names := range members {
					used = used || dir != p.Dir && names[d.Name]
				}
			}
			if !used {
				unused = append(unused, path.Base(p.Dir)+"."+d.String())
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// mentions records what file f, in directory dir, names: each
// package-qualified identifier under its import path, and each selector,
// interface method and composite-literal key name under dir.
func mentions(f *ast.File, dir string, qualified, members map[string]map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			add(members, dir, n.Sel.Name)
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				add(qualified, imports[x.Name], n.Sel.Name)
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					add(members, dir, name.Name)
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				add(members, dir, key.Name)
			}
		}
		return true
	})
}

// sourceFiles lists dir's non-test Go files.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && isSource(e.Name()) {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files, nil
}

func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func parse(name string) ([]byte, *ast.File, error) {
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
	return src, f, err
}

// exported lists a file's exported top-level declarations.
func exported(f *ast.File) []Decl {
	var out []Decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, Decl{Name: d.Name.Name})
			} else if recv := receiver(d); recv.IsExported() {
				out = append(out, Decl{Recv: recv.Name, Name: d.Name.Name})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, Decl{Name: s.Name.Name})
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							out = append(out, Decl{Name: name.Name})
						}
					}
				}
			}
		}
	}
	return out
}

// fields lists the exported fields of a file's exported struct types;
// embedded fields have no name of their own and are left out.
func fields(f *ast.File) []Decl {
	var out []Decl
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range g.Specs {
			t, ok := s.(*ast.TypeSpec)
			if !ok || !t.Name.IsExported() {
				continue
			}
			st, ok := t.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						out = append(out, Decl{Recv: t.Name.Name, Name: name.Name})
					}
				}
			}
		}
	}
	return out
}

// receiver returns the name of a method's receiver type, through any
// pointer and type-parameter list.
func receiver(d *ast.FuncDecl) *ast.Ident {
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x
		default:
			return ast.NewIdent("_")
		}
	}
}
