//go:build ignore

// Command size prints the two numbers that ROADMAP's "exported surface"
// aim tracks for the live stack: non-test lines (every line of every
// non-_test.go file) and exported declarations (top-level funcs, methods
// on exported types, types, and each const/var name) of the packages
// named on the command line. Run it through `make size`.
package main

import (
	"fmt"
	"os"

	"repro/internal/surface"
)

func main() {
	lines, decls := 0, 0
	for _, dir := range os.Args[1:] {
		p, err := surface.Load(".", dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "size:", err)
			os.Exit(1)
		}
		fmt.Printf("%-20s %5d lines\n", dir, p.Lines)
		lines += p.Lines
		decls += len(p.Decls)
	}
	fmt.Printf("non-test lines: %d\nexported declarations: %d\n", lines, decls)
}
