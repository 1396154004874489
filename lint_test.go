package grouphash_test

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExportedIdentifiersDocumented walks every non-test source file
// of the module and fails for exported declarations without a doc
// comment — the repository's documentation contract. Subdirectories
// with their own go.mod (perfbench/) are separate modules and are
// skipped, as `go test ./...` skips them.
func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var missing []string
	fset := token.NewFileSet()

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The walk root "." must not count as a hidden directory.
			name := d.Name()
			if name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if path != "." {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					missing = append(missing, fset.Position(d.Pos()).String()+" func "+d.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !groupDoc && s.Doc == nil {
							missing = append(missing, fset.Position(s.Pos()).String()+" type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
								missing = append(missing, fset.Position(s.Pos()).String()+" value "+n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers lack doc comments:", len(missing))
		for _, m := range missing {
			t.Log("  " + m)
		}
	}
}

// TestAllSourcesGofmtted walks every Go source file in the repository,
// tests included, and fails for any that gofmt would rewrite — the
// stdlib go/format check, so the gate needs no external tool.
func TestAllSourcesGofmtted(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The walk root "." must not count as a hidden directory.
			name := d.Name()
			if name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(src)
		if err != nil {
			return err
		}
		if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
