package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// uncalledAllowed names the internal packages whose declarations may go
// without a caller, each with its reason.
var uncalledAllowed = map[string]string{
	"internal/wfm": "the DAG workflow manager is the reference that its own TestCoarseCouplingMatchesDAGChain checks core's coarse coupling against; only tests run it",
}

// facadeAllowed names the funcs and consts of package repro that no other
// package has to name, each with its reason.
var facadeAllowed = map[string]string{
	"ReleasePools": "the only way a long-lived caller frees the parked goroutines that RunMany keeps; core's TestRunPoolLifecycle checks it",
}

// declAllowed names the fields and methods under internal/ that may go
// unread or uncalled, each with its reason.
var declAllowed = map[string]string{
	"core.Result.HostCost": "a test-only seam: the event and handoff budget tests read the kernel work each run booked",
	"sim.(*eventq).peek":   "FuzzEventQueue's oracle: it checks that the queue's head is the least pending event",
}

// TestInternalDeclarationsHaveCallers type-checks the module (go/types,
// standard library only, offline) and holds every declaration under
// internal/ to one of two rules.
//
// A package-level func, type, var or const, and every method (exported or
// not, interface methods included), has a caller when at least one of these
// holds:
//
//  1. a non-test file anywhere in the module uses it, outside its own
//     body: cmd, examples, perfbench and the root package count;
//  2. it is a method that implements a method of an interface that passes:
//     every standard-library interface passes, a module interface only if
//     its own method does;
//  3. a test file of another package uses it (a cross-package seam).
//
// A method that only its own package's tests call fails. A struct field
// (embedded ones aside) must be read by a non-test file of the module: the
// left side of =, := or an op-assign, the operand of ++ or --, and a
// composite-literal key are writes, not reads. Every field of a struct
// counts as read when the struct is a map key, an operand of == or !=, or
// an argument (or a pointer argument's target) passed to an interface-typed
// parameter (fmt's %+v, encoding/json), or when any of its fields carries a
// tag; the mark reaches its nested struct and array fields. An allowlisted
// field counts as read, with all it holds. declAllowed and uncalledAllowed
// list the exceptions, each with its reason.
//
// Each func and const of the repro facade must be named by a non-test file
// of another package; its type aliases and error sentinels are exempt,
// since they name what the kept exports hand out.
func TestInternalDeclarationsHaveCallers(t *testing.T) {
	l := newModuleLoader()
	if err := l.loadModule("."); err != nil {
		t.Fatal(err)
	}
	if len(l.testErrs) > 0 {
		t.Fatalf("type-checking the tests: %v", errors.Join(l.testErrs...))
	}
	failures := l.deadDeclarations(func(dir string) bool {
		_, ok := uncalledAllowed[dir]
		return strings.HasPrefix(dir, "internal/") && !ok
	}, declAllowed)

	usedOutside := map[types.Object]bool{} // non-test uses from another package
	for _, m := range l.mods {
		for _, obj := range m.info.Uses {
			if obj = origin(obj); obj.Pkg() != nil && obj.Pkg() != m.pkg {
				usedOutside[obj] = true
			}
		}
	}
	facade := l.byDir["."].pkg
	for _, name := range facade.Scope().Names() {
		obj := facade.Scope().Lookup(name)
		switch obj.(type) {
		case *types.Func, *types.Const:
		default:
			continue
		}
		if _, ok := facadeAllowed[name]; ok || !obj.Exported() || usedOutside[obj] {
			continue
		}
		failures = append(failures, l.where(obj)+"repro."+name+" is named by no other package's non-test file")
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// TestDeadCodeGateFixture runs the gate's rules on testdata/deadcode, whose
// internal package holds one case of each rule, and checks its exact
// findings.
func TestDeadCodeGateFixture(t *testing.T) {
	l := newModuleLoader()
	if _, err := l.module("testdata/deadcode"); err != nil {
		t.Fatal(err)
	}
	got := l.deadDeclarations(func(dir string) bool {
		return strings.HasPrefix(dir, "testdata/deadcode/internal/")
	}, nil)
	sort.Strings(got)
	want := []string{
		"testdata/deadcode/internal/fix/fix.go:11: fix.Counter.assigned is never read outside tests",
		"testdata/deadcode/internal/fix/fix.go:12: fix.Counter.summed is never read outside tests",
		"testdata/deadcode/internal/fix/fix.go:13: fix.Counter.bumped is never read outside tests",
		"testdata/deadcode/internal/fix/fix.go:28: fix.(*Counter).reset has no caller outside tests",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadDeclarations applies the caller and read rules to the declarations
// of the packages that check selects, and lists each one that fails and
// that allowed does not name.
func (l *moduleLoader) deadDeclarations(check func(dir string) bool, allowed map[string]string) []string {
	used := map[types.Object]bool{} // rules 1 and 3
	for _, m := range l.mods {
		for id, obj := range m.info.Uses {
			obj = origin(obj)
			if body, ok := l.bodies[obj]; ok && body[0] <= id.Pos() && id.Pos() < body[1] {
				continue // a recursive call is no caller
			}
			used[obj] = true
		}
	}
	for _, m := range l.mods {
		for _, test := range m.tests {
			for _, obj := range test.Uses {
				// An in-package test check re-checks the package's own
				// files too, but their objects are copies that never
				// match a declaration; another package's objects are
				// shared, and uses of them from non-test files count
				// under rule 1 already.
				if obj = origin(obj); obj.Pkg() != nil && modDir(obj.Pkg().Path()) != m.dir {
					used[obj] = true
				}
			}
		}
	}

	// Rule 2: a method passes through an interface it implements.
	implements := l.implementations()
	for changed := true; changed; {
		changed = false
		for m, ifaceMethods := range implements {
			if used[m] {
				continue
			}
			for _, im := range ifaceMethods {
				if used[im] || modDir(im.Pkg().Path()) == "" {
					used[m] = true
					changed = true
					break
				}
			}
		}
	}

	var failures []string
	report := func(obj types.Object, name, why string) {
		if _, ok := allowed[name]; !ok {
			failures = append(failures, l.where(obj)+name+" "+why)
		}
	}
	for _, m := range l.mods {
		if check(m.dir) {
			for _, obj := range declared(m.pkg) {
				if !used[obj] {
					report(obj, qualified(obj), "has no caller outside tests")
				}
			}
		}
	}
	for _, f := range l.unreadFields(check, allowed) {
		report(f.obj, f.name, "is never read outside tests")
	}
	return failures
}

// where is obj's file:line position, as a report line's prefix.
func (l *moduleLoader) where(obj types.Object) string {
	p := l.fset.Position(obj.Pos())
	return p.Filename + ":" + strconv.Itoa(p.Line) + ": "
}

// field is a struct field that the read rule checks, with the name it is
// reported by: pkg.T.f, or pkg.f in a struct literal type.
type field struct {
	obj  *types.Var
	name string
}

// unreadFields lists the fields declared in the packages that check selects
// which no non-test file of the module reads. A field that allowed names
// counts as read, with every field of the struct it holds.
func (l *moduleLoader) unreadFields(check func(dir string) bool, allowed map[string]string) []field {
	read := map[*types.Var]bool{}
	seen := map[*types.Struct]bool{}
	// readAll marks every field of each struct that a value of type t
	// holds in place: its own, and those of its struct and array fields.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		if t == nil {
			return
		}
		if named, ok := t.(*types.Named); ok {
			t = named.Origin()
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if seen[u] {
				return
			}
			seen[u] = true
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i)] = true
				readAll(u.Field(i).Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}

	var fields []field
	writes := map[*ast.Ident]bool{}
	write := func(e ast.Expr) {
		e = ast.Unparen(e)
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, m := range l.mods {
		checked := check(m.dir)
		names := map[*ast.StructType]string{}
		for _, f := range m.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						names[st] = n.Name.Name + "."
					}
				case *ast.StructType:
					s, _ := m.info.TypeOf(n).(*types.Struct)
					if !checked || s == nil {
						break
					}
					for i := 0; i < s.NumFields(); i++ {
						fv := s.Field(i)
						name := m.pkg.Name() + "." + names[n] + fv.Name()
						if _, ok := allowed[name]; ok {
							read[fv] = true
							readAll(fv.Type())
						} else if !fv.Embedded() && fv.Name() != "_" {
							fields = append(fields, field{fv, name})
						}
						if s.Tag(i) != "" {
							readAll(s) // an encoder reads every field
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.KeyValueExpr:
					// A struct literal's key is a write; a map literal's
					// identifier key names no field, so marking it is moot.
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(m.info.TypeOf(n.X))
						readAll(m.info.TypeOf(n.Y))
					}
				case *ast.MapType:
					readAll(m.info.TypeOf(n.Key))
				case *ast.CallExpr:
					tv := m.info.Types[n.Fun]
					sig, ok := tv.Type.(*types.Signature)
					if !ok || tv.IsType() {
						break
					}
					params := sig.Params()
					for i, arg := range n.Args {
						var pt types.Type
						switch {
						case sig.Variadic() && i >= params.Len()-1:
							pt = params.At(params.Len() - 1).Type()
							if !n.Ellipsis.IsValid() {
								pt = pt.(*types.Slice).Elem()
							}
						case i < params.Len():
							pt = params.At(i).Type()
						}
						if _, tp := pt.(*types.TypeParam); pt == nil || tp || !types.IsInterface(pt) {
							continue
						}
						at := m.info.TypeOf(arg)
						if p, ok := at.(*types.Pointer); ok {
							at = p.Elem() // fmt prints a struct's fields through one pointer
						}
						readAll(at)
					}
				}
				return true
			})
		}
	}
	for _, m := range l.mods {
		for id, obj := range m.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[v.Origin()] = true
			}
		}
	}
	var unread []field
	for _, f := range fields {
		if !read[f.obj] {
			unread = append(unread, f)
		}
	}
	return unread
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// modDir is the module directory of an import path under repro, or "" for
// any other path.
func modDir(importPath string) string {
	if importPath == "repro" {
		return "."
	}
	if rest, ok := strings.CutPrefix(importPath, "repro/"); ok {
		return rest
	}
	return ""
}

// qualified names obj as pkg.Name, pkg.T.M or pkg.(*T).M.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			ptr, isPtr := rt.(*types.Pointer)
			if isPtr {
				rt = ptr.Elem()
			}
			tn := rt.(*types.Named).Obj().Name()
			if isPtr {
				tn = "(*" + tn + ")"
			}
			name += tn + "."
		}
	}
	return name + obj.Name()
}

// modPkg is one module package: its non-test check and the Uses of its
// test checks (in-package and external).
type modPkg struct {
	dir   string
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	bp    *build.Package
	tests []*types.Info
}

// moduleLoader type-checks the module's packages from source, and the
// standard library from GOROOT with function bodies skipped.
type moduleLoader struct {
	fset     *token.FileSet
	ctxt     build.Context
	byDir    map[string]*modPkg
	mods     []*modPkg // in dependency order
	std      map[string]*types.Package
	bodies   map[types.Object][2]token.Pos // module func -> its body's extent
	testErrs []error
}

func newModuleLoader() *moduleLoader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &moduleLoader{
		fset:   token.NewFileSet(),
		ctxt:   ctxt,
		byDir:  map[string]*modPkg{},
		std:    map[string]*types.Package{},
		bodies: map[types.Object][2]token.Pos{},
	}
}

// Import resolves repro/... to the module and every other path to GOROOT.
func (l *moduleLoader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := modDir(importPath); dir != "" {
		m, err := l.module(dir)
		if err != nil {
			return nil, err
		}
		return m.pkg, nil
	}
	if p, ok := l.std[importPath]; ok {
		return p, nil
	}
	dir := filepath.Join(l.ctxt.GOROOT, "src", importPath)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		dir = filepath.Join(l.ctxt.GOROOT, "src", "vendor", importPath)
		if bp, err = l.ctxt.ImportDir(dir, 0); err != nil {
			return nil, err
		}
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Sizes:            types.SizesFor(l.ctxt.Compiler, l.ctxt.GOARCH),
		Error:            func(error) {}, // declarations are all the scan needs
	}
	p, _ := conf.Check(importPath, l.fset, files, nil)
	l.std[importPath] = p
	return p, nil
}

// parse parses the named files of dir, concurrently: parsing is most of
// the scan's time.
func (l *moduleLoader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			files[i], errs[i] = parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		}()
	}
	wg.Wait()
	return files, errors.Join(errs...)
}

// module type-checks the non-test files of the package in dir once.
func (l *moduleLoader) module(dir string) (*modPkg, error) {
	if m, ok := l.byDir[dir]; ok {
		if m.pkg == nil {
			return nil, errors.New("import cycle through " + dir)
		}
		return m, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	m := &modPkg{dir: dir, bp: bp}
	l.byDir[dir] = m
	if m.files, err = l.parse(dir, bp.GoFiles); err != nil {
		return nil, err
	}
	importPath := "repro"
	if dir != "." {
		importPath += "/" + dir
	}
	m.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	if m.pkg, err = conf.Check(importPath, l.fset, m.files, m.info); err != nil {
		return nil, err
	}
	for _, f := range m.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				l.bodies[m.info.Defs[fd.Name]] = [2]token.Pos{fd.Body.Pos(), fd.Body.End()}
			}
		}
	}
	l.mods = append(l.mods, m)
	return m, nil
}

// loadModule checks every package under root, then each one's tests.
func (l *moduleLoader) loadModule(root string) error {
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		var noGo *build.NoGoError
		if _, err := l.module(filepath.ToSlash(p)); err != nil && !errors.As(err, &noGo) {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range l.mods {
		if len(m.bp.TestGoFiles) > 0 {
			tests, err := l.parse(m.dir, m.bp.TestGoFiles)
			if err != nil {
				return err
			}
			l.checkTest(m, m.pkg.Path(), append(tests, m.files...))
		}
		if len(m.bp.XTestGoFiles) > 0 {
			tests, err := l.parse(m.dir, m.bp.XTestGoFiles)
			if err != nil {
				return err
			}
			l.checkTest(m, m.pkg.Path()+"_test", tests)
		}
	}
	return nil
}

// checkTest type-checks one test package of m and keeps its Uses; its
// type errors fail the scan.
func (l *moduleLoader) checkTest(m *modPkg, importPath string, files []*ast.File) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l, Error: func(err error) { l.testErrs = append(l.testErrs, err) }}
	conf.Check(importPath, l.fset, files, info)
	m.tests = append(m.tests, info)
}

// declared lists what the caller rule checks in pkg: every package-level
// object and every method of its named types.
func declared(pkg *types.Package) []types.Object {
	var objs []types.Object
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		objs = append(objs, obj)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				objs = append(objs, iface.ExplicitMethod(i))
			}
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			objs = append(objs, named.Method(i))
		}
	}
	return objs
}

// implementations maps each method of a module named type to the
// interface methods it implements: those of every named interface of the
// standard library packages loaded, and of every module interface, named
// or literal.
func (l *moduleLoader) implementations() map[types.Object][]types.Object {
	var ifaces []types.Type
	seen := map[types.Type]bool{}
	addIface := func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() == 0 {
				ifaces = append(ifaces, t)
			}
		}
	}
	for _, p := range l.std {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addIface(tn.Type())
			}
		}
	}
	for _, m := range l.mods {
		for _, obj := range m.info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					addIface(recv.Type())
				}
			}
		}
	}

	edges := map[types.Object][]types.Object{}
	for _, m := range l.mods {
		for _, name := range m.pkg.Scope().Names() {
			tn, ok := m.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			var t types.Type = named
			if !types.IsInterface(named) {
				t = types.NewPointer(named)
			}
			mset := types.NewMethodSet(t)
			for _, it := range ifaces {
				if it == types.Type(named) {
					continue
				}
				iface := it.Underlying().(*types.Interface)
				if mset.Lookup(iface.Method(0).Pkg(), iface.Method(0).Name()) == nil || !types.Implements(t, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					im := iface.Method(i)
					sel := mset.Lookup(im.Pkg(), im.Name())
					edges[sel.Obj()] = append(edges[sel.Obj()], im)
				}
			}
		}
	}
	return edges
}
