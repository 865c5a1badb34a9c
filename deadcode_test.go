package repro

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
)

// uncalledAllowed names the internal packages whose package-level
// declarations may go without a non-test caller, each with its reason.
var uncalledAllowed = map[string]string{
	"internal/wfm": "the DAG workflow manager is the reference core's TestCoarseCouplingMatchesDAGChain checks the pair gate against; only tests run it",
}

// Every package-level func, type, var and const under internal/ must be
// referenced by some non-test file of the module: cmd, examples and
// perfbench included. A reference is a pkg.Name selector from another
// package or, within the declaring package, any identifier of that name
// other than the declaration itself. The scan is syntactic (go/parser,
// no type checker), so it cannot decide methods, which interfaces may
// call; they are out of its scope.
func TestInternalDeclarationsHaveCallers(t *testing.T) {
	type file struct {
		dir string // slash-separated, relative to the module root
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	pkgName := map[string]string{} // dir -> package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ dir, name string }
	decls := map[key]token.Pos{}
	declIdent := map[*ast.Ident]bool{}
	declare := func(dir string, id *ast.Ident) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		decls[key{dir, id.Name}] = id.Pos()
		declIdent[id] = true
	}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(fl.dir, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(fl.dir, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(fl.dir, id)
						}
					}
				}
			}
		}
	}

	used := map[key]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> dir
		for _, imp := range fl.f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ip, "repro/")
			if !ok {
				continue
			}
			name := pkgName[rel]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[key{dir, n.Sel.Name}] = true
					}
				}
			case *ast.Ident:
				if !declIdent[n] {
					used[key{fl.dir, n.Name}] = true
				}
			}
			return true
		})
	}

	var uncalled []string
	for k, pos := range decls {
		if used[k] {
			continue
		}
		if _, ok := uncalledAllowed[k.dir]; ok {
			continue
		}
		p := fset.Position(pos)
		uncalled = append(uncalled, p.Filename+":"+strconv.Itoa(p.Line)+": "+path.Base(k.dir)+"."+k.name)
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no caller outside tests", u)
	}
}
