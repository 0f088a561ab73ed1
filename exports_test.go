package monsoon

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

// internalExportAllowList names the exported declarations under internal/
// that no non-test file uses, each with the reason it stays. Keys are
// "<dir under internal>.<Name>" or "<dir under internal>.<Type>.<Method>".
var internalExportAllowList = map[string]string{
	"mcts.UCT":                 "the zero Strategy, so the default: callers get it without naming it",
	"obs.SpanNode.MarshalJSON": "encoding/json calls it",
	"obs.Tracer.TraceID":       "claimed by per-request trace ids in the daemon (ROADMAP item 4)",
	"opt.PlanCostOf":           "claimed by the true-cardinality regret report (ROADMAP item 2)",
	"sketch.NewSpaceSaving":    "claimed by the heavy-hitter skew sketch (ROADMAP item 14)",
	"sketch.SpaceSaving.Top":   "claimed by the heavy-hitter skew sketch (ROADMAP item 14)",
	"stats.Store.Measured":     "the string-keyed read the stats, opt and core tests share",
	"table.IdenticalRows":      "the row comparison the table, engine and root tests share",
}

// TestInternalExportsHaveCallers fails when an exported function, method,
// type, const or var under internal/ has no use in any non-test .go file of
// the main module or of the benchmark/ module. A package-level name counts
// as used when a file of its own package names it bare, or another file
// selects it through an import of its package; a method counts as used when
// any file selects a member of that name or an interface declares one.
// Methods of the types api.go aliases are public API and exempt.
func TestInternalExportsHaveCallers(t *testing.T) {
	u := &uses{names: map[string]bool{}, members: map[string]bool{}, aliased: map[string]bool{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		return u.read(filepath.ToSlash(p))
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{} // every internal export, keyed as in the allow-list
	for _, d := range u.decls {
		key := strings.TrimPrefix(d.dir, "internal/") + "."
		if d.recv == "" {
			used[key+d.name] = u.names[d.dir+"."+d.name]
		} else {
			used[key+d.recv+"."+d.name] = u.members[d.name] || u.aliased[d.dir+"."+d.recv]
		}
	}
	var unused []string
	for key, ok := range used {
		if _, allowed := internalExportAllowList[key]; !ok && !allowed {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("exported %s has no caller outside tests: delete it, move it into its package's tests, or allow-list it with a reason", key)
	}
	for key := range internalExportAllowList {
		if ok, declared := used[key]; !declared {
			t.Errorf("allow-listed %s is declared nowhere: drop it from internalExportAllowList", key)
		} else if ok {
			t.Errorf("allow-listed %s now has a caller: drop it from internalExportAllowList", key)
		}
	}
}

// uses is what TestInternalExportsHaveCallers gathers from the source files.
type uses struct {
	decls   []exportDecl
	names   map[string]bool // "<dir>.<Name>": named bare in its package, or selected through an import
	members map[string]bool // names selected from any expression, or declared as interface methods
	aliased map[string]bool // "<dir>.<Type>" of each `type X = pkg.Type` in api.go
}

type exportDecl struct {
	dir, recv, name string
}

// importDir maps an import path of either module to its directory, or ""
// for a path outside both.
func importDir(ip string) string {
	for _, m := range []struct{ prefix, dir string }{{"monsoon/benchmark", "benchmark"}, {"monsoon", "."}} {
		if ip == m.prefix || strings.HasPrefix(ip, m.prefix+"/") {
			return path.Clean(path.Join(m.dir, strings.TrimPrefix(ip, m.prefix)))
		}
	}
	return ""
}

// read adds one non-test file's exported internal declarations and its uses.
func (u *uses) read(p string) error {
	af, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	dir := path.Dir(p)
	imports := map[string]string{} // local name -> dir
	for _, is := range af.Imports {
		ip, _ := strconv.Unquote(is.Path.Value)
		if d := importDir(ip); d != "" {
			local := path.Base(ip)
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = d
		}
	}

	declIdents := map[*ast.Ident]bool{}
	declare := func(recv string, id *ast.Ident) {
		declIdents[id] = true
		if id.IsExported() && strings.HasPrefix(dir, "internal/") {
			u.decls = append(u.decls, exportDecl{dir, recv, id.Name})
		}
	}
	for _, d := range af.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv = receiverName(d.Recv.List[0].Type)
			}
			declare(recv, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare("", s.Name)
					if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign.IsValid() && p == "api.go" {
						if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
							u.aliased[imports[x.Name]+"."+sel.Sel.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.Name != "_" {
							declare("", id)
						}
					}
				}
			}
		}
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			u.members[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				u.names[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					u.members[id.Name] = true
				}
			}
		case *ast.Field:
			// Field and parameter names declare; only their types use.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			if !declIdents[n] {
				u.names[dir+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(af, visit)
	return nil
}

// receiverName strips the pointer and type parameters from a method
// receiver's type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
