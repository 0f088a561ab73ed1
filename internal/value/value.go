// Package value defines the scalar value model shared by the storage layer,
// the expression evaluator, and the statistics subsystem. A Value is a
// 24-byte tagged union — a kind, one payload word and one data pointer — that
// is passed by value everywhere and never aliases mutable state: strings are
// immutable, and an int-list's backing array is private to the Value that
// IntList made.
//
// Every row the engine scans, joins and materializes is a run of Values, so
// the size of one is what the kernels clear and copy and what the collector
// re-scans per produced object; that is why the layout is packed by hand
// behind the accessors instead of being the obvious struct of five fields.
// This file is the one non-test file in the module that imports unsafe.
package value

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
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
//
// Layout (24 bytes, one pointer word):
//
//	kind  which of the payloads below is live
//	n     bool: 0 or 1; int: the int64's bits; float: math.Float64bits;
//	      string: length in bytes; int-list: length in elements
//	p     string: unsafe.StringData; int-list: unsafe.SliceData; nil otherwise
//
// Scalars keep p nil so the collector skips them the way it skips a nil
// string or slice word: a row of ints costs it one nil check per value and no
// object lookup. That is also why the value is not 16 bytes: a pointer-free
// Value needs strings interned in a table that outlives them — the UDFs mint
// strings per row, so the table would be process-global, locked on every
// evaluation and unbounded under ad-hoc query text — and a tagged word that
// holds either an int or a pointer hands the collector a non-nil word per int.
//
// The unsafe invariants, which the four call sites below (String and IntList
// pack, s and l unpack) are the only code to rely on:
//
//   - p always comes from unsafe.StringData or unsafe.SliceData of a live Go
//     string or slice and is never offset, so it is an ordinary (possibly
//     interior) Go pointer the collector understands; a Value made from a
//     substring keeps its parent's bytes alive exactly as the substring does.
//   - n for a string or list is the length that string or slice had, so
//     unsafe.String/unsafe.Slice rebuild exactly what was packed; a list is
//     rebuilt with cap == len, so an append by a caller can never write into
//     the shared backing array.
//   - nothing writes through p: strings are immutable and IntList packs a
//     private copy.
//
// == on a Value does not compile (the leading zero-size field holds a func,
// and being first it adds no padding), and reflect.DeepEqual on Values is not
// value equality: both would compare p, and two equal strings built
// separately have different data pointers. Use Equal for SQL equality and
// Identical (table.IdenticalRows for rows) for "the same value".
type Value struct {
	_    [0]func()
	kind Kind
	n    uint64
	p    unsafe.Pointer
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// String wraps a string.
func String(s string) Value {
	return Value{kind: KindString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// IntList wraps a list of int64s as an immutable set value. The input slice is
// copied, sorted, and deduplicated so that two lists with the same members
// compare equal regardless of insertion order.
func IntList(xs []int64) Value {
	cp := make([]int64, len(xs))
	copy(cp, xs)
	slices.Sort(cp)
	cp = slices.Compact(cp)
	return Value{kind: KindIntList, n: uint64(len(cp)), p: unsafe.Pointer(unsafe.SliceData(cp))}
}

// s unpacks the string payload; v.kind must be KindString.
func (v Value) s() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// l unpacks the int-list payload; v.kind must be KindIntList. The slice is
// non-nil (IntList always packs a made slice) and has cap == len.
func (v Value) l() []int64 { return unsafe.Slice((*int64)(v.p), int(v.n)) }

func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is false for non-bool values.
func (v Value) AsBool() bool { return v.kind == KindBool && v.n != 0 }

// AsInt returns the integer payload, coercing floats by truncation and
// parsing numeric strings; non-numeric values yield 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i()
	case KindFloat:
		return int64(v.f())
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s()), 10, 64)
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
		return v.f()
	case KindInt, KindBool:
		return float64(v.i())
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s()), 64)
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
		return v.s()
	default:
		return v.String()
	}
}

// AsIntList returns the list payload. The returned slice must not be mutated.
func (v Value) AsIntList() []int64 {
	if v.kind != KindIntList {
		return nil
	}
	return v.l()
}

// String renders the value for display and for use as a grouping key; the
// rendering is AppendTo's.
func (v Value) String() string {
	if v.kind == KindString {
		return v.s()
	}
	var buf [24]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the value's rendering to b and returns the extended
// slice: NULL, true/false, a decimal int, a float in strconv's shortest 'g'
// form, a string's own bytes, an int list as [a,b,c]. It is the one renderer
// of a Value — String returns it, and the daemon's result digest hashes it,
// so a change here changes every result hash clients compare.
func (v Value) AppendTo(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "NULL"...)
	case KindBool:
		return strconv.AppendBool(b, v.n != 0)
	case KindInt:
		return strconv.AppendInt(b, v.i(), 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f(), 'g', -1, 64)
	case KindString:
		return append(b, v.s()...)
	case KindIntList:
		b = append(b, '[')
		for i, x := range v.l() {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, x, 10)
		}
		return append(b, ']')
	default:
		return append(b, '?')
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
		return v.i() == o.i()
	case KindFloat:
		return v.f() == o.f()
	case KindString:
		return v.s() == o.s()
	case KindIntList:
		return slices.Equal(v.l(), o.l())
	default:
		return false
	}
}

// Identical reports whether two values are the same value: the same kind and
// the same payload. Unlike Equal it is an equivalence — NULL is identical to
// NULL, a NaN to a NaN of the same bits — and it does not coerce: Int(1) is
// not identical to Float(1), nor Float(0) to Float(-0). It is what tests that
// compare two runs' rows mean; reflect.DeepEqual is not (see Value).
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindString:
		return a.s() == b.s()
	case KindIntList:
		return slices.Equal(a.l(), b.l())
	default:
		return a.n == b.n
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
		return v.i() < o.i()
	case KindFloat:
		return v.f() < o.f()
	case KindString:
		return v.s() < o.s()
	case KindIntList:
		return slices.Compare(v.l(), o.l()) < 0
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
// yields over the same bytes, which Σ estimates and every golden depend on.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindBool, KindInt:
		return fnvU64(fnvByte(fnvOffset64, 2), v.n)
	case KindFloat:
		if f := v.f(); f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return fnvU64(fnvByte(fnvOffset64, 2), uint64(int64(f)))
		}
		return fnvU64(fnvByte(fnvOffset64, 3), v.n)
	case KindString:
		h := fnvByte(fnvOffset64, 4)
		s := v.s()
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
		return h
	case KindIntList:
		h := fnvByte(fnvOffset64, 5)
		for _, x := range v.l() {
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
