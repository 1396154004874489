package hashtab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCellsPassedByPointer walks every non-test source file of the
// module and fails on a value receiver of Cells, or on a function
// parameter or result of type Cells, NewCells's result excepted.
//
// Cells is 48 bytes, more than the four words the gc compiler keeps in
// registers, so a by-value Cells is spilled to the stack field by field
// (five 8-byte stores and a 1-byte one) and read back with three
// 16-byte loads. A load that spans several narrower stores cannot be
// forwarded from the store buffer: it waits until those stores commit,
// and so until every older instruction retires, the previous cell
// access's cache miss included. Consecutive cell accesses then never
// overlap their misses: BenchmarkCellsCommitRandom measured a random
// Commit through a by-value receiver at 25–31 ns against 4.5–4.8 ns for
// the bare Read8 it wraps. A pointer receiver reads each field where it
// lies. Subdirectories with their own go.mod are separate modules and
// are skipped, as `go test ./...` skips them.
func TestCellsPassedByPointer(t *testing.T) {
	const root = "../.." // the module root, above internal/hashtab
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root {
				if name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inPkg := f.Name.Name == "hashtab"
		isCells := func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.Ident:
				return inPkg && e.Name == "Cells"
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				return ok && x.Name == "hashtab" && e.Sel.Name == "Cells"
			}
			return false
		}
		check := func(fl *ast.FieldList, what string) {
			if fl == nil {
				return
			}
			for _, field := range fl.List {
				if isCells(field.Type) {
					bad = append(bad, fset.Position(field.Pos()).String()+": "+what+" of type Cells")
				}
			}
		}
		var newCells *ast.FuncType // NewCells returns the one value
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && isCells(n.Recv.List[0].Type) {
					bad = append(bad, fset.Position(n.Pos()).String()+": value receiver of Cells on "+n.Name.Name)
				}
				if inPkg && n.Recv == nil && n.Name.Name == "NewCells" {
					newCells = n.Type
				}
			case *ast.FuncType:
				check(n.Params, "parameter")
				if n != newCells {
					check(n.Results, "result")
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Errorf("Cells passed by value: %s", b)
	}
}
