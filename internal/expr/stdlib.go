package expr

import (
	"fmt"
	"strconv"
	"strings"

	"monsoon/internal/value"
)

// This file is the library of concrete UDFs the benchmarks use. They are
// deliberately written as ordinary opaque Go functions — string surgery, IP
// bucketing, set algebra — the kind of code the paper's introduction shows in
// PySpark lambdas. Nothing in the optimizer inspects their bodies.

// Identity returns a UDF that projects a single attribute unchanged. Plain
// column equi-joins (R.a = S.b) are represented as Identity-UDF joins so the
// whole pipeline goes through one code path; the benchmarks that model
// statistics-rich systems simply pre-seed the statistics store for them.
func Identity(attr string) *UDF {
	return &UDF{
		Name: "id",
		Args: []string{attr},
		Fn:   func(args []value.Value) value.Value { return args[0] },
	}
}

// ExtractDate parses the date prefix out of a timestamp string of the form
// "YYYY-MM-DD hh:mm:ss" (the paper's ExtractDate(o.when)).
func ExtractDate(attr string) *UDF {
	return &UDF{
		Name: "ExtractDate",
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			s := args[0].AsString()
			if i := strings.IndexByte(s, ' '); i >= 0 {
				s = s[:i]
			}
			return value.String(s)
		},
	}
}

// City maps an IPv4 address string to a synthetic city bucket (the paper's
// City(s.ipAdd)): the first two octets select the city.
func City(attr string) *UDF {
	return &UDF{
		Name: "City",
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			parts := strings.SplitN(args[0].AsString(), ".", 3)
			if len(parts) < 2 {
				return value.Null()
			}
			a, err1 := strconv.Atoi(parts[0])
			b, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return value.Null()
			}
			return value.Int(int64(a)*256 + int64(b))
		},
	}
}

// Between extracts the substring between two markers, mirroring the
// `x[x.index('id="')+4 : x.index('" url="')]` pattern from the introduction.
// Rows without both markers yield NULL (and therefore never join).
func Between(attr, after, before string) *UDF {
	return &UDF{
		Name: "Between_" + after + "_" + before,
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			s := args[0].AsString()
			i := strings.Index(s, after)
			if i < 0 {
				return value.Null()
			}
			rest := s[i+len(after):]
			j := strings.Index(rest, before)
			if j < 0 {
				return value.Null()
			}
			return value.String(rest[:j])
		},
	}
}

// HashMod maps an integer attribute into b buckets; a cheap surrogate for the
// "opaque transformation" UDFs in the TPC-H part of the UDF benchmark.
func HashMod(attr string, b int64) *UDF {
	return &UDF{
		Name: "HashMod" + strconv.FormatInt(b, 10),
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			x := uint64(args[0].AsInt())
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
			x ^= x >> 33
			return value.Int(int64(x % uint64(b)))
		},
	}
}

// Lower lowercases a string attribute.
func Lower(attr string) *UDF {
	return &UDF{
		Name: "Lower",
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			return value.String(strings.ToLower(args[0].AsString()))
		},
	}
}

// Prefix truncates a string attribute to n bytes.
func Prefix(attr string, n int) *UDF {
	return &UDF{
		Name: "Prefix" + strconv.Itoa(n),
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			s := args[0].AsString()
			if len(s) > n {
				s = s[:n]
			}
			return value.String(s)
		},
	}
}

// ConcatKey concatenates two attributes (possibly from different aliases)
// with a separator; with attributes from two aliases it is a genuine
// multi-table UDF, the F1(R,S) shape from the paper's SELECT example.
func ConcatKey(attrA, attrB string) *UDF {
	return &UDF{
		Name: "ConcatKey",
		Args: []string{attrA, attrB},
		Fn: func(args []value.Value) value.Value {
			if args[0].IsNull() || args[1].IsNull() {
				return value.Null()
			}
			return value.String(args[0].AsString() + "|" + args[1].AsString())
		},
	}
}

// SetEqualsKey returns a canonical key for an item list such that two rows
// join iff their lists are equal as sets. It implements the paper's
// `Intersection(o1.items, o2.items) = Union(o1.items, o2.items)` trick:
// intersection equals union exactly when the two sets are equal, so joining
// on the canonical set representation is the same predicate.
func SetEqualsKey(attr string) *UDF {
	return &UDF{
		Name: "SetKey",
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			l := args[0].AsIntList()
			if l == nil {
				return value.Null()
			}
			return value.String(args[0].String())
		},
	}
}

// SumMod is a multi-table UDF combining integer attributes from two aliases:
// (a + b) mod m. It appears in the UDF benchmark's hardest queries, where no
// statistic exists until the cross product or join of the two aliases is
// materialized.
func SumMod(attrA, attrB string, m int64) *UDF {
	return &UDF{
		Name: "SumMod" + strconv.FormatInt(m, 10),
		Args: []string{attrA, attrB},
		Fn: func(args []value.Value) value.Value {
			s := args[0].AsInt() + args[1].AsInt()
			v := s % m
			if v < 0 {
				v += m
			}
			return value.Int(v)
		},
	}
}

// Sprintf formats an integer attribute through a fixed format string (e.g.
// "T%06d"). Paired with Between, it reproduces the paper's introductory
// pattern: one side of a join extracts an embedded key from free text, the
// other side formats a surrogate key to match — both opaque to the optimizer.
func Sprintf(attr, format string) *UDF {
	return &UDF{
		Name: "Sprintf_" + format,
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			if args[0].IsNull() {
				return value.Null()
			}
			return value.String(fmt.Sprintf(format, args[0].AsInt()))
		},
	}
}

// YearOf extracts the integer year from a "YYYY-MM-DD..." string.
func YearOf(attr string) *UDF {
	return &UDF{
		Name: "YearOf",
		Args: []string{attr},
		Fn: func(args []value.Value) value.Value {
			s := args[0].AsString()
			if len(s) < 4 {
				return value.Null()
			}
			y, err := strconv.Atoi(s[:4])
			if err != nil {
				return value.Null()
			}
			return value.Int(int64(y))
		},
	}
}
