package repro

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the prose that cites code: the architecture notes, the
// module's package comment and docs/*.md.
var docFiles = []string{"ARCHITECTURE.md", "doc.go", "docs/*.md"}

// TestDocsCiteLiveCode fails on a document that cites code which is not
// there (ROADMAP item 21(a)). Every backticked span of docFiles is read as
// one of:
//
//   - a dotted Go name, `pkg.Name`, `Type.Member` or longer chains such as
//     `pkg.Type.Member`, with any call arguments dropped: it must resolve,
//     by type, to a declaration of the module (Test, Benchmark and Fuzz
//     functions in the package's test files) or of a standard-library
//     package, or be a metric name: one BENCHMARK.json declares
//     (`core.distill_step_ms`) or a string constant of the module's code
//     (`extra.envelope_shrink_x`, a scenario gate);
//   - a repository path, one whose first element is a top-level directory,
//     or any slash-separated name of a file: it must exist, from the root,
//     from internal/ (`serve/journal.go`) or in the standard library's
//     source; a bare file name (`pool.go`) must name some file of the
//     repository. A `*` is a glob that must match.
//
// Anything else in backticks (flags, scenario names, shell commands, words)
// is not a citation and is not checked. Code that is gone is named without
// backticks.
func TestDocsCiteLiveCode(t *testing.T) {
	l, decl, _ := loadModule(t)
	r := newCiteResolver(t, l, decl)
	var docs []string
	for _, pat := range docFiles {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s matches no document", pat)
		}
		docs = append(docs, m...)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				if why := r.check(m[1]); why != "" {
					t.Errorf("%s:%d: `%s` %s", doc, i+1, m[1], why)
				}
			}
		}
	}
}

var (
	dottedName = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(.*\))?$`)
	fileExt    = regexp.MustCompile(`\.(go|s|md|sh|json|jsonl|yml|bin|allow|txt|mod)$`)
)

// citeResolver resolves the spans TestDocsCiteLiveCode checks.
type citeResolver struct {
	l       *moduleLoader
	pkgs    map[string]*types.Package // by package name: the module's, then the standard library's it imports
	types   map[string][]*types.TypeName
	tests   map[string]bool // "pkg.TestX" for every test-file function
	metrics map[string]bool // BENCHMARK.json's metrics and every string constant of the module
	files   map[string]bool // the base name of every file of the repository
	dirs    map[string]bool // the repository's top-level directories
}

func newCiteResolver(t *testing.T, l *moduleLoader, decl []*modulePkg) *citeResolver {
	t.Helper()
	r := &citeResolver{l: l, pkgs: map[string]*types.Package{}, types: map[string][]*types.TypeName{},
		tests: map[string]bool{}, metrics: map[string]bool{}, files: map[string]bool{}, dirs: map[string]bool{}}
	for _, p := range decl {
		for _, imp := range p.pkg.Imports() {
			if l.pkgs[imp.Path()] == nil {
				r.pkgs[imp.Name()] = imp
			}
		}
	}
	fset := token.NewFileSet()
	for _, p := range decl {
		r.pkgs[p.pkg.Name()] = p.pkg
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						r.metrics[v] = true
					}
				}
				return true
			})
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				r.types[name] = append(r.types[name], tn)
			}
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(p.pkg.Path(), "repro"), "/")
		tests, _ := filepath.Glob(filepath.Join(".", dir, "*_test.go"))
		for _, f := range tests {
			af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					r.tests[p.pkg.Name()+"."+fd.Name.Name] = true
				}
			}
		}
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		r.metrics[m.Name] = true
	}
	err = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			r.files[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			r.dirs[e.Name()] = true
		}
	}
	return r
}

// check returns why span does not resolve, or "" when it does or is not a
// citation.
func (r *citeResolver) check(span string) string {
	if strings.ContainsAny(span, " \t") {
		return ""
	}
	if fileExt.MatchString(span) || strings.Contains(span, "/") {
		return r.checkPath(span)
	}
	if !dottedName.MatchString(span) {
		return ""
	}
	name, _, _ := strings.Cut(span, "(")
	if r.metrics[name] || r.resolves(strings.Split(name, ".")) {
		return ""
	}
	return "names no declaration of the module or the standard library, and no BENCHMARK.json metric"
}

func (r *citeResolver) checkPath(span string) string {
	first, _, nested := strings.Cut(span, "/")
	if !nested {
		if r.files[span] {
			return ""
		}
		return "names no file of the repository"
	}
	if !r.dirs[first] && !fileExt.MatchString(span) {
		return "" // a scenario name, a URL path or an import path
	}
	for _, root := range []string{".", "internal", filepath.Join(runtime.GOROOT(), "src")} {
		if m, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(span))); len(m) > 0 {
			return ""
		}
	}
	return "is no path of the repository or the standard library"
}

// resolves reports whether the name chain parts resolves: its first element
// a package or a type name, each further element a declaration in that
// package or a field or method of the type so far.
func (r *citeResolver) resolves(parts []string) bool {
	pkg := r.pkgs[parts[0]]
	if pkg == nil && r.types[parts[0]] == nil {
		pkg = r.std(parts[0])
	}
	if pkg != nil {
		if len(parts) == 2 && r.tests[parts[0]+"."+parts[1]] {
			return true
		}
		obj := pkg.Scope().Lookup(parts[1])
		return obj != nil && member(obj, parts[2:])
	}
	for _, tn := range r.types[parts[0]] {
		if member(tn, parts[1:]) {
			return true
		}
	}
	return false
}

// std imports a standard-library package by a one-element path (testing,
// runtime) the module's non-test code does not import, or returns nil.
func (r *citeResolver) std(name string) *types.Package {
	p, err := r.l.std.Import(name)
	if err != nil {
		return nil
	}
	r.pkgs[name] = p
	return p
}

// member reports whether each of parts is a field or method of the type of
// the one before it, from obj.
func member(obj types.Object, parts []string) bool {
	for _, name := range parts {
		f, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		if f == nil {
			return false
		}
		obj = f
	}
	return true
}
