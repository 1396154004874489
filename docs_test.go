package grouphash_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// testNameRef matches a Go test, benchmark or fuzz target name, with
	// an optional trailing * standing for every name with that prefix.
	testNameRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// fileLineRef matches a file.go:NNN reference.
	fileLineRef = regexp.MustCompile(`[\w./-]+\.go:\d+`)
	// inlineCode matches a backticked span, which may wrap a line.
	inlineCode = regexp.MustCompile("`[^`]+`")
)

// TestDocsReferences fails when DESIGN.md or README.md backticks a
// test, benchmark or fuzz target that no _test.go file in the
// repository declares, or points at a file.go:NNN line, which goes
// stale with the next edit above it: a doc names the function instead.
func TestDocsReferences(t *testing.T) {
	declared := declaredTests(t)
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, loc := range fileLineRef.FindAllStringIndex(text, -1) {
			t.Errorf("%s:%d: file:line reference %s", doc, lineOf(text, loc[0]), text[loc[0]:loc[1]])
		}
		for _, c := range codeSpans(text) {
			for _, name := range testNameRef.FindAllString(c.text, -1) {
				checked++
				if !declaredName(declared, name) {
					t.Errorf("%s:%d: %s names no test, benchmark or fuzz target in any _test.go file", doc, c.line, name)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("the docs backtick no test names: the span scan is broken")
	}
}

// declaredTests returns the names of every top-level Test, Benchmark
// and Fuzz function in the repository's _test.go files, nested modules
// (perfbench/) included.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testNameRef.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// declaredName reports whether name is declared, or for a name ending
// in * whether some declared name has that prefix.
func declaredName(declared map[string]bool, name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// codeSpan is the text between backticks, inline or fenced, and the
// document line it starts on.
type codeSpan struct {
	line int
	text string
}

// codeSpans returns doc's fenced code lines and inline code spans.
// Fence lines are blanked before the inline scan, so a fence's
// backticks never pair with an inline one and line numbers hold.
func codeSpans(doc string) []codeSpan {
	var spans []codeSpan
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			spans = append(spans, codeSpan{i + 1, line})
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	for _, loc := range inlineCode.FindAllStringIndex(prose, -1) {
		spans = append(spans, codeSpan{lineOf(prose, loc[0]), prose[loc[0]:loc[1]]})
	}
	return spans
}

// lineOf returns the 1-based line of byte offset off in text.
func lineOf(text string, off int) int {
	return strings.Count(text[:off], "\n") + 1
}
