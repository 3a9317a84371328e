package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"otfair/internal/analysis"
)

// stdInterfaceMethods are method names the standard library calls through
// an interface (error, fmt.Stringer, errors.Unwrap, http.Handler,
// json.Marshaler, sort.Interface, heap.Interface, io.*, rand.Source), so
// a method of that name is live without any selector naming it.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"ServeHTTP":   true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true, "ReadAt": true, "WriteTo": true, "ReadFrom": true,
	"Int63": true, "Uint64": true, "Seed": true,
}

// funcKey names a package-level function by its package's import path.
type funcKey struct{ pkg, name string }

// testonlyFindings walks the module at root (module path modPath; nested
// modules such as perfbench/ included) and returns every exported function
// or method declared in a non-test file under internal/ that no non-test
// file references, unless its doc comment carries //otfair:testonly-ok.
//
// The scan is syntactic. A package function counts as used when a non-test
// file names it through an import of its package, or bare from its own
// package outside its own body. A method counts as used when any non-test
// file selects its name on any operand. Name collisions can therefore hide
// dead code, but a reference never goes unseen, so live code is never
// reported.
func testonlyFindings(root, modPath string) ([]string, error) {
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgNames := map[string]string{} // import path -> package name
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(modPath, filepath.ToSlash(rel))
		pkgNames[pkg] = f.Name.Name
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	usedFuncs := map[funcKey]bool{}
	usedMethods := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			local := path.Base(p)
			if n, ok := pkgNames[p]; ok {
				local = n
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		var self string // the function whose body is being walked
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				self = ""
				if n.Recv == nil {
					self = n.Name.Name
				} else {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				self = ""
				return false
			case *ast.SelectorExpr:
				usedMethods[n.Sel.Name] = true
				if id, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						usedFuncs[funcKey{p, n.Sel.Name}] = true
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					usedFuncs[funcKey{f.pkg, n.Name}] = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			ast.Inspect(d, visit)
		}
	}

	internal := path.Join(modPath, "internal") + "/"
	var out []string
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, internal) {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if _, ok := analysis.CommentGroupDirective(fd.Doc, analysis.DirTestOnlyOK); ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil {
				if usedFuncs[funcKey{f.pkg, name}] {
					continue
				}
			} else {
				if usedMethods[name] || stdInterfaceMethods[name] {
					continue
				}
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, strings.TrimPrefix(f.pkg, modPath+"/")+"."+name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// recvName renders a receiver type as (T) or (*T), type parameters dropped.
func recvName(e ast.Expr) string {
	star := ""
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = "*", s.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return "(" + star + id.Name + ")"
	}
	return "(?)"
}

// TestNoTestOnlyExports is the module-wide guard against production code
// that only tests call: every exported function or method in internal/
// must be referenced from some non-test file in the module (perfbench/
// included), or say why not with //otfair:testonly-ok <reason>. Move an
// oracle into a _test.go file; delete code nothing needs.
func TestNoTestOnlyExports(t *testing.T) {
	found, err := testonlyFindings(moduleRoot(t), "otfair")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: exported from internal/ but only tests call it; move it into a _test.go file, delete it, or mark it //otfair:%s <reason>", f, analysis.DirTestOnlyOK)
	}
}

// TestTestOnlyFixture pins the guard's rule on a planted module under
// testdata/testonly: a dead exported function and method are reported;
// the directive, a non-test caller (bare, imported or aliased), a
// selected method name and the standard-interface methods clear them.
func TestTestOnlyFixture(t *testing.T) {
	found, err := testonlyFindings(filepath.Join("testdata", "testonly"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/p.(*T).DeadMethod",
		"internal/p.Dead",
		"internal/p.Recursive",
	}
	if strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(found, "\n"), strings.Join(want, "\n"))
	}
}
