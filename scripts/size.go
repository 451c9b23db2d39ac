//go:build ignore

// Command size prints the two numbers ROADMAP item 6 tracks for the live
// stack: non-test lines (every line of every non-_test.go file) and
// exported declarations (top-level funcs, methods on exported types,
// types, and each const/var name) of the packages named on the command
// line. Run it through `make size`.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	lines, decls := 0, 0
	fset := token.NewFileSet()
	for _, dir := range os.Args[1:] {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			fmt.Fprintf(os.Stderr, "size: no Go files in %s\n", dir)
			os.Exit(1)
		}
		dirLines := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "size:", err)
				os.Exit(1)
			}
			dirLines += bytes.Count(src, []byte("\n"))
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				fmt.Fprintln(os.Stderr, "size:", err)
				os.Exit(1)
			}
			decls += exported(f)
		}
		fmt.Printf("%-20s %5d lines\n", dir, dirLines)
		lines += dirLines
	}
	fmt.Printf("non-test lines: %d\nexported declarations: %d\n", lines, decls)
}

// exported counts a file's exported top-level declarations.
func exported(f *ast.File) int {
	n := 0
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || receiver(d).IsExported()) {
				n++
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
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
