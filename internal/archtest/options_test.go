package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// keptKnobs are the settings only tests set, each kept for its reason. A knob
// leaves this list when a non-test caller sets it or it becomes a constant.
var keptKnobs = map[string]string{
	// Until the serving stack reads one injectable clock, these are how a
	// test reaches a deadline, a bound or a cadence without waiting on it.
	"gateway.Config.ReadTimeout":  "a test's read deadline, until the clock exists",
	"gateway.Config.WriteTimeout": "a test's write deadline, until the clock exists",
	"gateway.Config.MaxOwners":    "a test's tenant bound, until the clock exists",
	"cluster.Config.RingSize":     "a test's replication ring, until the clock exists",
	"cluster.Config.Heartbeat":    "a test's heartbeat cadence, until the clock exists",
	// ablation_test.go sweeps the paper's design choices against each other.
	"core.Config.Order":             "the cache discipline ablation_test.go sweeps",
	"strategy.ANTConfig.SplitRatio": "the budget split ablation_test.go sweeps",
	// A negative capacity is the uncached reference the differential tests
	// hold the answer cache to.
	"gateway.Config.QueryCache": "the uncached reference of the differential tests",
	// The failover and partition tests cut replication through faultnet.
	"cluster.Config.Dialer": "the fault-injection seam of the replication tests",
}

var withOption = regexp.MustCompile(`^With[A-Z]`)

// options lists each exported field of an exported *Config, *Options or
// *Params struct of internal/, and each exported With* function there and in
// the root package, the library's facade; and, keptKnobs included, the ones
// no non-test file sets. A field is set by a key
// of a composite literal of its struct, or by an assignment to it or its
// address taken (flag.IntVar(&cfg.F, …)) — except, in its own package, a
// default: one under an if whose condition reads the field. A With* option
// is set by a reference from outside its package.
func options(srcs []src) (all, unset []string) {
	info, pkgOf := typeCheck(srcs)
	knobs := map[types.Object]string{}
	for _, obj := range info.Defs {
		if obj == nil || obj.Pkg() == nil || !obj.Exported() || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		internal := strings.HasPrefix(obj.Pkg().Path(), "dpsync/internal/")
		if !internal && obj.Pkg().Path() != "dpsync" {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		switch obj := obj.(type) {
		case *types.Func:
			if withOption.MatchString(obj.Name()) {
				knobs[obj] = name
			}
		case *types.TypeName:
			if !internal {
				continue // the facade's Config types are internal/'s, by alias
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || !strings.HasSuffix(obj.Name(), "Config") && !strings.HasSuffix(obj.Name(), "Options") && !strings.HasSuffix(obj.Name(), "Params") {
				continue
			}
			for f := range st.Fields() {
				if f.Exported() && !f.Embedded() {
					knobs[f] = name + "." + f.Name()
				}
			}
		}
	}
	for _, name := range knobs {
		all = append(all, name)
	}
	for _, s := range srcs {
		from := pkgOf[s.file]
		var stack []ast.Node // the nodes enclosing the one visited, and it
		// defaults reports whether an if enclosing the write of obj reads it.
		defaults := func(obj types.Object) bool {
			return slices.ContainsFunc(stack, func(n ast.Node) bool {
				found := false
				if st, ok := n.(*ast.IfStmt); ok {
					ast.Inspect(st.Cond, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						found = found || ok && info.Uses[id] == obj
						return !found
					})
				}
				return found
			})
		}
		written := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if obj := info.Uses[sel.Sel]; obj != nil && (obj.Pkg() != from || !defaults(obj)) {
					delete(knobs, obj)
				}
			}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					delete(knobs, info.Uses[id])
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					written(l)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					written(n.X)
				}
			case *ast.SelectorExpr:
				if obj, ok := info.Uses[n.Sel].(*types.Func); ok && obj.Pkg() != from {
					delete(knobs, obj)
				}
			}
			return true
		})
	}
	for _, name := range knobs {
		unset = append(unset, name)
	}
	slices.Sort(all)
	slices.Sort(unset)
	return all, unset
}

// typeCheck type-checks each package srcs hold, once, in import order, and
// records what each identifier denotes and which package each file is of. A
// package outside the module is an empty stand-in: what it declares stays
// unresolved, which no rule here needs, and nothing is compiled.
func typeCheck(srcs []src) (*types.Info, map[*ast.File]*types.Package) {
	m := &moduleImporter{
		fset: srcs[0].fset, files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	for _, s := range srcs {
		m.files[importPath(s.path)] = append(m.files[importPath(s.path)], s.file)
	}
	pkgOf := map[*ast.File]*types.Package{}
	for _, s := range srcs {
		pkgOf[s.file], _ = m.Import(importPath(s.path))
	}
	return m.info, pkgOf
}

func importPath(file string) string {
	if dir := path.Dir(file); dir != "." {
		return "dpsync/" + dir
	}
	return "dpsync"
}

var majorVersion = regexp.MustCompile(`^v[0-9]+$`)

type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		name := path.Base(p)
		if majorVersion.MatchString(name) {
			name = path.Base(path.Dir(p))
		}
		m.pkgs[p] = types.NewPackage(p, name)
		m.pkgs[p].MarkComplete()
		return m.pkgs[p], nil
	}
	conf := types.Config{Importer: m, Error: func(error) {}}
	m.pkgs[p], _ = conf.Check(p, m.fset, files, m.info)
	return m.pkgs[p], nil
}

// testOptionCallers is TestArch/every-option-has-a-caller: a setting that
// only tests set, or nothing does, is a constant or nothing.
func testOptionCallers(t *testing.T, srcs []src) {
	all, unset := options(srcs)
	if bad := slices.DeleteFunc(slices.Clone(unset), func(n string) bool { _, ok := keptKnobs[n]; return ok }); len(bad) > 0 {
		t.Errorf("set by no non-test file (make each a constant, give it a caller, or keep it in keptKnobs with its reason): %q", bad)
	}
	for name := range keptKnobs {
		switch {
		case !slices.Contains(all, name):
			t.Errorf("keptKnobs names %s, which is no option", name)
		case !slices.Contains(unset, name):
			t.Errorf("keptKnobs names %s, which a non-test file sets: drop it from the list", name)
		}
	}
}
