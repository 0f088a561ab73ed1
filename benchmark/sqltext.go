package main

import (
	"fmt"
	"strings"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/expr"
	"monsoon/internal/query"
	"monsoon/internal/value"
)

// sqlText renders a query as the sqlish statement that parses back to it.
// Only identity and YearOf terms have a textual form, which covers the TPC-H
// suite; the UDF suite's string-surgery functions do not.
func sqlText(q *query.Query) (string, error) {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	if q.Out.Kind == query.AggSum {
		b.Reset()
		fmt.Fprintf(&b, "SELECT SUM(%s) FROM ", q.Out.Attr)
	}
	for i, r := range q.Rels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", r.Table, r.Alias)
	}
	var conds []string
	for _, j := range q.Joins {
		l, err := termText(j.L.Fn)
		if err != nil {
			return "", err
		}
		r, err := termText(j.R.Fn)
		if err != nil {
			return "", err
		}
		conds = append(conds, l+" = "+r)
	}
	for _, s := range q.Sels {
		t, err := termText(s.T.Fn)
		if err != nil {
			return "", err
		}
		c := s.Const.String()
		if s.Const.Kind() == value.KindString {
			c = "'" + strings.ReplaceAll(s.Const.AsString(), "'", "''") + "'"
		}
		conds = append(conds, t+" = "+c)
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	return b.String(), nil
}

func termText(u *expr.UDF) (string, error) {
	switch {
	case u.Name == "id" && len(u.Args) == 1:
		return u.Args[0], nil
	case u.Name == "YearOf" && len(u.Args) == 1:
		return "YearOf(" + u.Args[0] + ")", nil
	}
	return "", fmt.Errorf("no sqlish form for %s", u)
}

// tpchTexts renders the ten TPC-H suite queries; a query that does not render
// is a change to the suite the benchmark must follow, so it panics.
func tpchTexts() []string {
	var out []string
	for _, q := range tpch.Queries() {
		text, err := sqlText(q)
		if err != nil {
			panic(fmt.Sprintf("benchmark: %s: %v", q.Name, err))
		}
		out = append(out, text)
	}
	return out
}
