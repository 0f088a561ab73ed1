// Package value defines the scalar value model shared by the storage layer,
// the expression evaluator, and the statistics subsystem. A Value is a small
// tagged union; it is passed by value everywhere and never aliases mutable
// state, except for list values whose backing slice must not be mutated after
// construction.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindIntList // immutable sorted list of int64, used for set-valued columns
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindIntList:
		return "intlist"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a tagged union of the scalar types understood by the engine.
// The zero Value is SQL NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	l    []int64
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// IntList wraps a list of int64s as an immutable set value. The input slice is
// copied, sorted, and deduplicated so that two lists with the same members
// compare equal regardless of insertion order.
func IntList(xs []int64) Value {
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	out := cp[:0]
	for i, x := range cp {
		if i == 0 || x != cp[i-1] {
			out = append(out, x)
		}
	}
	return Value{kind: KindIntList, l: out}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is false for non-bool values.
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// AsInt returns the integer payload, coercing floats by truncation and
// parsing numeric strings; non-numeric values yield 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.f)
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0
		}
		return n
	default:
		return 0
	}
}

// AsFloat returns the floating-point payload, coercing ints.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt, KindBool:
		return float64(v.i)
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsString returns the string payload; non-strings are formatted.
func (v Value) AsString() string {
	switch v.kind {
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

// AsIntList returns the list payload. The returned slice must not be mutated.
func (v Value) AsIntList() []int64 {
	if v.kind != KindIntList {
		return nil
	}
	return v.l
}

// String renders the value for display and for use as a grouping key.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindIntList:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, x := range v.l {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(x, 10))
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "?"
	}
}

// Equal reports deep equality between two values. Values of different kinds
// are unequal except int/float comparisons, which compare numerically. NULL
// equals nothing, including NULL (SQL semantics for predicates).
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind != o.kind {
		if isNumeric(v.kind) && isNumeric(o.kind) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.kind {
	case KindBool, KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindIntList:
		if len(v.l) != len(o.l) {
			return false
		}
		for i := range v.l {
			if v.l[i] != o.l[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Less imposes a total order used for sorting and ordered comparisons. NULL
// sorts before everything; values of different kinds order by kind.
func (v Value) Less(o Value) bool {
	if v.kind != o.kind {
		if isNumeric(v.kind) && isNumeric(o.kind) {
			return v.AsFloat() < o.AsFloat()
		}
		return v.kind < o.kind
	}
	switch v.kind {
	case KindNull:
		return false
	case KindBool, KindInt:
		return v.i < o.i
	case KindFloat:
		return v.f < o.f
	case KindString:
		return v.s < o.s
	case KindIntList:
		n := len(v.l)
		if len(o.l) < n {
			n = len(o.l)
		}
		for i := 0; i < n; i++ {
			if v.l[i] != o.l[i] {
				return v.l[i] < o.l[i]
			}
		}
		return len(v.l) < len(o.l)
	default:
		return false
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat || k == KindBool }

// FNV-1a, 64 bit: the parameters of hash/fnv's New64a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit hash of the value, suitable for hash joins and
// sketches. Numerically equal ints and floats hash identically. It is FNV-1a
// over a kind tag followed by the payload's little-endian bytes, written out
// as a loop so that hashing allocates nothing; the values are those hash/fnv
// yields over the same bytes, which Σ estimates, shard routing and every
// golden depend on.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindBool, KindInt:
		return fnvU64(fnvByte(fnvOffset64, 2), uint64(v.i))
	case KindFloat:
		if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			return fnvU64(fnvByte(fnvOffset64, 2), uint64(int64(v.f)))
		}
		return fnvU64(fnvByte(fnvOffset64, 3), math.Float64bits(v.f))
	case KindString:
		h := fnvByte(fnvOffset64, 4)
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
		return h
	case KindIntList:
		h := fnvByte(fnvOffset64, 5)
		for _, x := range v.l {
			h = fnvU64(h, uint64(x))
		}
		return h
	case KindNull:
		return fnvByte(fnvOffset64, 0)
	default: // a kind no constructor makes: no bytes written
		return fnvOffset64
	}
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvU64 folds x into h least-significant byte first.
func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x))
		x >>= 8
	}
	return h
}
