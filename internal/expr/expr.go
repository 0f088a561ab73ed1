// Package expr models the opaque user-defined functions whose statistics are
// hidden from the optimizer. A UDF is a black box to the planner — only its
// argument attribute list is visible (the system knows *which* attributes a
// UDF reads, not *what* it computes), exactly the "partially obscured
// predicate" setting of the paper: the optimizer can see an equi-join of two
// function terms but cannot estimate their distinct-value counts statically.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"monsoon/internal/table"
	"monsoon/internal/value"
)

// UDF is an opaque scalar function over a set of table-qualified attributes.
// Fn receives the argument values in the order of Args.
type UDF struct {
	// Name identifies the function in plans and statistics keys.
	Name string
	// Args lists the fully qualified attributes ("alias.column") the
	// function reads. Aliases spanned by Args determine when the function
	// becomes evaluable during planning.
	Args []string
	// Fn is the opaque implementation.
	Fn func(args []value.Value) value.Value
}

// Aliases returns the sorted set of aliases referenced by the UDF's
// arguments. A UDF with more than one alias is a multi-table UDF: its
// statistics cannot be collected before a join covering all aliases has been
// materialized.
func (u *UDF) Aliases() []string {
	set := map[string]bool{}
	for _, a := range u.Args {
		i := strings.IndexByte(a, '.')
		if i < 0 {
			panic(fmt.Sprintf("expr: unqualified UDF argument %q", a))
		}
		set[a[:i]] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Binding caches the column positions of the UDF's arguments in one schema so
// repeated evaluation avoids map lookups per row.
type Binding struct {
	udf  *UDF
	pos  []int
	args []value.Value
}

// Bind resolves the UDF's arguments against a schema. It returns false if any
// argument is not present (the UDF is not evaluable over this schema).
func (u *UDF) Bind(s *table.Schema) (*Binding, bool) {
	pos := make([]int, len(u.Args))
	for i, a := range u.Args {
		p, ok := s.Lookup(a)
		if !ok {
			return nil, false
		}
		pos[i] = p
	}
	return &Binding{udf: u, pos: pos, args: make([]value.Value, len(pos))}, true
}

// Evaluable reports whether all the UDF's arguments are present in s.
func (u *UDF) Evaluable(s *table.Schema) bool {
	for _, a := range u.Args {
		if _, ok := s.Lookup(a); !ok {
			return false
		}
	}
	return true
}

// Eval applies the UDF to one row. The returned value may alias the binding's
// scratch space only if the UDF itself retains it, which library UDFs do not.
func (b *Binding) Eval(row table.Row) value.Value {
	for i, p := range b.pos {
		b.args[i] = row[p]
	}
	return b.udf.Fn(b.args)
}

// Rebase returns a copy of the UDF with every argument's alias rewritten
// through the given mapping (old alias -> new alias). Arguments whose alias
// is absent from the map keep their alias. Benchmarks use this to instantiate
// one template UDF for several table aliases.
func (u *UDF) Rebase(mapping map[string]string) *UDF {
	args := make([]string, len(u.Args))
	for i, a := range u.Args {
		j := strings.IndexByte(a, '.')
		alias, col := a[:j], a[j+1:]
		if repl, ok := mapping[alias]; ok {
			alias = repl
		}
		args[i] = alias + "." + col
	}
	return &UDF{Name: u.Name, Args: args, Fn: u.Fn}
}

// String renders the UDF as F(args...) for plans and logs.
func (u *UDF) String() string {
	return u.Name + "(" + strings.Join(u.Args, ",") + ")"
}
