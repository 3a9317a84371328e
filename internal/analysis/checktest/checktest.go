// Package checktest is the fixture harness for the otfairlint analyzers —
// the offline stand-in for golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory of .go files forming one package. Expected
// findings are declared inline with trailing comments:
//
//	for k := range m { // want "range over map"
//
// Each quoted string is a regexp that must match exactly one diagnostic
// reported on that line; diagnostics without a matching want, and wants
// without a matching diagnostic, fail the test. The harness applies the
// same //otfair:* directive suppression as the cmd/otfairlint driver, so
// fixtures can assert both that a violation fires and that a reasoned
// directive silences it.
//
// Because several analyzers gate on the package import path (the
// determinism-critical set, the hook packages), Run takes the path to
// type-check the fixture under — a fixture checked as
// "otfair/internal/core" exercises the critical-path behavior, the same
// source under a neutral path asserts the analyzer stays quiet.
package checktest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"otfair/internal/analysis"
	"otfair/internal/analysis/load"
)

// Run type-checks the fixture directory under pkgPath and asserts the
// analyzer's diagnostics (after directive suppression) match the // want
// comments.
//
//otfair:testonly-ok the fixture harness every analyzer package's tests share
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := typeCheck(fset, files, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	pass.Analyzer = a
	supp := analysis.NewSuppressor(fset, files)
	var got []analysis.Diagnostic
	pass.Report = func(d analysis.Diagnostic) {
		if a.Directive != "" && supp.Suppressed(a.Directive, d.Pos) {
			return
		}
		got = append(got, d)
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	compare(t, fset, files, got)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("checktest: no .go files in %s", dir)
	}
	return files, nil
}

// moduleRoot is the repo root, used as the working directory for go list
// when resolving fixture imports.
func moduleRoot() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "..")
}

func typeCheck(fset *token.FileSet, files []*ast.File, pkgPath string) (*analysis.Pass, error) {
	var imports []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	sort.Strings(imports)
	imp, err := load.Importer(fset, moduleRoot(), imports...)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	info := load.NewInfo()
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("checktest: type-checking fixture as %s: %w", pkgPath, err)
	}
	return &analysis.Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// want is one expected-diagnostic pattern at a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants scans trailing `// want "re" ["re" ...]` comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func compare(t *testing.T, fset *token.FileSet, files []*ast.File, got []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
diags:
	for _, d := range got {
		pos := fset.Position(d.Pos)
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue diags
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
