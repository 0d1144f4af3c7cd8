package repro

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// knobStructs are the options structs whose every field must have a caller:
// the serving tier's two and the scenario harness's.
var knobStructs = []string{"serve.Options", "fabric.Options", "harness.Spec"}

// TestEveryKnobHasACaller fails on a knob nothing turns (ROADMAP item 17):
//
//   - a flag that a binary under cmd/ declares (any flag function or
//     FlagSet method taking a name and a usage) which no command in
//     scripts/*.sh or .github/workflows/*.yml passes: a command that names
//     the binary and carries -name as a whole token, with backslash
//     continuations joined;
//   - a field of one of knobStructs that no non-test Go of the module or of
//     benchmark/ writes, as a composite-literal key or the left side of an
//     assignment, resolved by type as TestDeadWeight resolves references.
//     A default is not a caller: an assignment inside an if whose condition
//     reads the same field (`if o.F == 0 { o.F = d }`) does not count
//
// — minus the reasoned exceptions in scripts/knobs.allow, which holds at most
// four. A knob only a test turns is a code path only a test runs.
func TestEveryKnobHasACaller(t *testing.T) {
	l, decl, consumer := loadModule(t)

	commands, err := ciCommands()
	if err != nil {
		t.Fatal(err)
	}
	fields := map[types.Object]string{}
	for _, name := range knobStructs {
		pkg, typ, _ := strings.Cut(name, ".")
		p := l.pkgs["repro/internal/"+pkg]
		if p == nil || p.pkg.Scope().Lookup(typ) == nil {
			t.Fatalf("%s not found", name)
		}
		st := p.pkg.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}

	var idle []string
	written := map[types.Object]bool{}
	for _, p := range append(decl, consumer) {
		defaults := defaultWrites(p.info, p.files)
		binary := ""
		if strings.HasPrefix(p.pkg.Path(), "repro/cmd/") {
			binary = filepath.Base(p.pkg.Path())
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if binary == "" {
						return true
					}
					flag, ok := flagName(p.info, n)
					if !ok {
						return true
					}
					if flag == "" {
						t.Errorf("%s: a flag whose name is not a constant string", l.fset.Position(n.Pos()))
					} else if !passed(commands, binary, flag) {
						idle = append(idle, binary+" -"+flag)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						written[p.info.Uses[key]] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && !defaults[sel] {
							written[p.info.Uses[sel.Sel]] = true
						}
					}
				}
				return true
			})
		}
	}
	for field, name := range fields {
		if !written[field] {
			idle = append(idle, name)
		}
	}

	allow, err := readAllow("scripts/knobs.allow")
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) > 4 {
		t.Errorf("scripts/knobs.allow holds %d exceptions; it holds at most 4", len(allow))
	}
	sort.Strings(idle)
	for _, name := range idle {
		if _, ok := allow[name]; ok {
			allow[name] = true
			continue
		}
		t.Errorf("no caller outside tests: %s", name)
	}
	for name, hit := range allow {
		if !hit {
			t.Errorf("scripts/knobs.allow: %s has a caller (or no longer exists); drop the line", name)
		}
	}
}

// flagName reports whether call defines a flag — a function or method of
// package flag with parameters named name and usage — and the flag's name,
// or "" when that argument is not a constant string.
func flagName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return "", false
	}
	params := fn.Type().(*types.Signature).Params()
	at, usage := -1, false
	for i := 0; i < params.Len(); i++ {
		switch params.At(i).Name() {
		case "name":
			at = i
		case "usage":
			usage = true
		}
	}
	if at < 0 || !usage || at >= len(call.Args) {
		return "", false
	}
	if v := info.Types[call.Args[at]].Value; v != nil && v.Kind() == constant.String {
		return constant.StringVal(v), true
	}
	return "", true
}

// defaultWrites returns the field assignments that only default a field:
// those inside an if whose condition reads the field they write.
func defaultWrites(info *types.Info, files []*ast.File) map[*ast.SelectorExpr]bool {
	out := map[*ast.SelectorExpr]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			tested := map[types.Object]bool{}
			ast.Inspect(ifs.Cond, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					tested[info.Uses[sel.Sel]] = true
				}
				return true
			})
			ast.Inspect(ifs.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && tested[info.Uses[sel.Sel]] {
							out[sel] = true
						}
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

// ciCommands returns the commands of scripts/*.sh and
// .github/workflows/*.yml, one per line once backslash continuations are
// joined.
func ciCommands() ([]string, error) {
	var files []string
	for _, glob := range []string{"scripts/*.sh", ".github/workflows/*.yml"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	var commands []string
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		joined := strings.ReplaceAll(string(b), "\\\n", " ")
		commands = append(commands, strings.Split(joined, "\n")...)
	}
	return commands, nil
}

// passed reports whether a command naming binary carries -flag as a whole
// token.
func passed(commands []string, binary, flag string) bool {
	token := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(flag) + `($|[^\w-])`)
	for _, c := range commands {
		if strings.Contains(c, binary) && token.MatchString(c) {
			return true
		}
	}
	return false
}
