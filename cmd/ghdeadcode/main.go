// Command ghdeadcode lists the module's functions that no product
// binary links. It builds every cmd/*, examples/* and perfbench binary,
// and every package's test binary, with inlining off (-gcflags=all=-l)
// into a temporary directory; lists the function declarations of the
// module's non-test, non-main files with go/parser (files for other
// platforms included); and compares them with `go tool nm`'s symbols.
// Each function no product binary links is printed with its line count
// (doc comment excluded) and marked test-only (a test binary links it)
// or unreached, followed by the totals.
//
// Usage, from the module root: go run ./cmd/ghdeadcode (make deadcode).
// It is a report, not a gate. A cold run rebuilds the standard library
// without inlining and takes minutes.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const noInline = "-gcflags=all=-l"

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "ghdeadcode")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	prod, test := filepath.Join(dir, "prod"), filepath.Join(dir, "test")
	run("", "go", "build", noInline, "-o", prod+"/", "./cmd/...", "./examples/...")
	run("perfbench", "go", "build", noInline, "-o", filepath.Join(prod, "perfbench"), ".")
	run("perfbench", "go", "test", "-c", noInline, "-o", filepath.Join(test, "perfbench.test"), ".")
	pkgs := strings.Fields(run("", "go", "list", "-f", "{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}", "./..."))
	for i, p := range pkgs {
		run("", "go", "test", "-c", noInline, "-o", filepath.Join(test, fmt.Sprintf("%d.test", i)), p)
	}
	inProd, inTest := symbols(prod), symbols(test)

	module := strings.TrimSpace(run("", "go", "list", "-m"))
	wd, _ := os.Getwd()
	fset := token.NewFileSet()
	var dead []string
	declared, lines, testOnly := 0, 0, 0
	list := run("", "go", "list", "-f", `{{.ImportPath}} {{.Dir}} {{.Name}} {{join .GoFiles " "}} {{join .IgnoredGoFiles " "}}`, "./...")
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[2] == "main" {
			continue
		}
		for _, name := range f[3:] {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)
			if err != nil {
				log.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				declared++
				sym := f[0] + "." + symbolName(fd)
				if inProd[sym] {
					continue
				}
				start := fset.Position(fd.Pos())
				n := fset.Position(fd.End()).Line - start.Line + 1
				rel, _ := filepath.Rel(wd, start.Filename)
				mark := "unreached"
				if inTest[sym] {
					mark = "test-only"
					testOnly++
				}
				dead = append(dead, fmt.Sprintf("%-48s %4d lines  %s %s",
					fmt.Sprintf("%s:%d", rel, start.Line), n, strings.TrimPrefix(sym, module+"/"), mark))
				lines += n
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		fmt.Println(d)
	}
	fmt.Printf("%d functions declared, %d in no product binary (%d declaration lines): %d test-only, %d unreached\n",
		declared, len(dead), lines, testOnly, len(dead)-testOnly)
}

// run executes a command in dir (the module root when empty) and
// returns its standard output, exiting on failure.
func run(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		log.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return string(out)
}

// symbols returns the text symbols of every binary in dir, with type
// arguments stripped.
func symbols(dir string) map[string]bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	syms := map[string]bool{}
	for _, e := range entries {
		for _, line := range strings.Split(run("", "go", "tool", "nm", filepath.Join(dir, e.Name())), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				syms[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}
	return syms
}

// symbolName is the name nm prints for fd after its package path:
// F, T.M for a value receiver, (*T).M for a pointer receiver.
func symbolName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := stripTypeArgs(types.ExprString(fd.Recv.List[0].Type))
	if t, ok := strings.CutPrefix(recv, "*"); ok {
		return "(*" + t + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// stripTypeArgs drops the brackets of a generic function's or
// receiver's type arguments, e.g. "F[go.shape.int]" becomes "F".
func stripTypeArgs(s string) string {
	if i, j := strings.IndexByte(s, '['), strings.LastIndexByte(s, ']'); i >= 0 && j > i {
		return s[:i] + s[j+1:]
	}
	return s
}
