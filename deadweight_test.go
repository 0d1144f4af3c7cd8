package repro

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDeadWeight fails on dead weight: every package-level identifier (func,
// type, var, const) and method declared in non-test Go of the root module
// that no non-test Go file of the module or of benchmark/ references — code
// whose only callers, if any, are its own tests — minus the reasoned
// exceptions in scripts/deadweight.allow (ROADMAP item 6, "dead weight
// check").
//
// It is a type check, not a name scan: a reference is an identifier the
// type checker resolved to the declared object, so two packages declaring
// one name do not hide each other. A method also counts as referenced when
// its type satisfies, through it, an interface the module names or one an
// imported standard-library package exports (String through fmt.Stringer,
// Len/Less/Swap through sort.Interface). A method's receiver is not a
// reference to its type, and a declaration does not reference itself.
func TestDeadWeight(t *testing.T) {
	l, decl, consumer := loadModule(t)

	// References, and the interfaces a method can be reached through.
	used := map[types.Object]bool{}
	byMethod := map[string][]*types.Interface{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenStd := map[*types.Package]bool{}
	for _, p := range append(decl, consumer) {
		for _, imp := range p.pkg.Imports() {
			if l.pkgs[imp.Path()] != nil || seenStd[imp] {
				continue
			}
			seenStd[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		for _, tv := range p.info.Types {
			if _, generic := tv.Type.(*types.TypeParam); tv.IsType() && !generic {
				addIface(tv.Type)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				markUses(p.info, d, used)
			}
		}
	}

	allow, err := readAllow("scripts/deadweight.allow")
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	report := func(p *modulePkg, obj types.Object, name string) {
		if used[obj] {
			return
		}
		name = strings.TrimPrefix(strings.TrimPrefix(p.pkg.Path(), "repro/"), "internal/") + "." + name
		if _, ok := allow[name]; ok {
			allow[name] = true
			return
		}
		dead = append(dead, name)
	}
	for _, p := range decl {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "main" {
				continue
			}
			report(p, obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if named.TypeParams() == nil && viaInterface(named, byMethod[m.Name()]) {
					continue
				}
				report(p, m, name+"."+m.Name())
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("referenced only by tests, if at all: %s", name)
	}
	for name, hit := range allow {
		if !hit {
			t.Errorf("scripts/deadweight.allow: %s is not dead weight (or no longer exists); drop the line", name)
		}
	}
}

// loadModule type-checks every non-test package of the root module (decl,
// in directory order) and benchmark/, the module's one outside consumer.
func loadModule(t *testing.T) (l *moduleLoader, decl []*modulePkg, consumer *modulePkg) {
	t.Helper()
	// The standard library is type-checked from its pure-Go source, so the
	// checks need no C toolchain and no export data.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l = &moduleLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modulePkg{}}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name[0] == '.' || name == "testdata" || dir == "benchmark") {
			return filepath.SkipDir
		}
		if bp, err := build.Default.ImportDir(dir, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil // no non-test Go here
		}
		p, err := l.load(filepath.ToSlash(filepath.Join("repro", dir)))
		decl = append(decl, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if consumer, err = l.check("repro/benchmark", "benchmark"); err != nil {
		t.Fatal(err)
	}
	return l, decl, consumer
}

// modulePkg is one type-checked package of the module, non-test files only.
type modulePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// moduleLoader type-checks the module's packages from source, once each, so
// a consumer's reference and the declaration it names are one object; every
// other import path goes to the standard library's source importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modulePkg
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *moduleLoader) load(path string) (*modulePkg, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := l.check(path, filepath.Join(".", strings.TrimPrefix(path, "repro")))
	if err == nil {
		l.pkgs[path] = p
	}
	return p, err
}

// check parses and type-checks the non-test files the build would compile
// from dir.
func (l *moduleLoader) check(path, dir string) (*modulePkg, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &modulePkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.pkg, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p, err
}

// markUses marks every object a top-level declaration refers to, other than
// the object a reference sits in the declaration of (one func, or one spec
// of a var/const/type block) and the receiver type of a method.
func markUses(info *types.Info, d ast.Decl, used map[types.Object]bool) {
	mark := func(n ast.Node, own ...*ast.Ident) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			for _, self := range own {
				if obj == info.Defs[self] {
					return true
				}
			}
			if obj != nil {
				used[obj] = true
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		mark(d.Type, d.Name)
		if d.Body != nil {
			mark(d.Body, d.Name)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				mark(s, s.Name)
			case *ast.ValueSpec:
				mark(s, s.Names...)
			}
		}
	}
}

// viaInterface reports whether named (or its pointer) satisfies one of the
// interfaces.
func viaInterface(named *types.Named, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// readAllow reads scripts/deadweight.allow: one `name reason` line per
// exception, `#` comments. The map's values start false; the check sets an
// entry true when it excuses something.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) > 0 && !strings.HasPrefix(fields[0], "#") {
			allow[fields[0]] = false
		}
	}
	return allow, sc.Err()
}
