package value

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", KindIntList: "intlist",
		Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if Int(7).AsInt() != 7 {
		t.Error("Int roundtrip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float roundtrip failed")
	}
	if String("xy").AsString() != "xy" {
		t.Error("String roundtrip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool roundtrip failed")
	}
	if Null().AsBool() || Null().AsInt() != 0 || Null().AsFloat() != 0 {
		t.Error("Null coercions should be zero values")
	}
}

func TestCoercions(t *testing.T) {
	if Float(3.9).AsInt() != 3 {
		t.Errorf("Float(3.9).AsInt() = %d, want 3", Float(3.9).AsInt())
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int(3).AsFloat() != 3.0")
	}
	if String(" 42 ").AsInt() != 42 {
		t.Error("string->int coercion failed")
	}
	if String("4.5").AsFloat() != 4.5 {
		t.Error("string->float coercion failed")
	}
	if String("nope").AsInt() != 0 || String("nope").AsFloat() != 0 {
		t.Error("bad numeric strings should coerce to 0")
	}
	if Int(12).AsString() != "12" {
		t.Error("Int.AsString failed")
	}
}

func TestIntListNormalization(t *testing.T) {
	a := IntList([]int64{3, 1, 2, 3, 1})
	b := IntList([]int64{1, 2, 3})
	if !a.Equal(b) {
		t.Errorf("IntList should sort+dedup: %v vs %v", a, b)
	}
	if got := a.String(); got != "[1,2,3]" {
		t.Errorf("IntList.String() = %q", got)
	}
	if a.Hash() != b.Hash() {
		t.Error("equal lists must hash equal")
	}
	src := []int64{5, 4}
	v := IntList(src)
	src[0] = 99
	if v.AsIntList()[0] != 4 {
		t.Error("IntList must copy its input")
	}
}

func TestEqualSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL must not equal NULL")
	}
	if Null().Equal(Int(0)) || Int(0).Equal(Null()) {
		t.Error("NULL must not equal anything")
	}
	if !Int(2).Equal(Float(2.0)) || !Float(2.0).Equal(Int(2)) {
		t.Error("numeric cross-kind equality failed")
	}
	if Int(2).Equal(String("2")) {
		t.Error("int should not equal string")
	}
	if !String("a").Equal(String("a")) || String("a").Equal(String("b")) {
		t.Error("string equality failed")
	}
	if IntList([]int64{1}).Equal(IntList([]int64{1, 2})) {
		t.Error("lists of different length should differ")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Error("bool equality failed")
	}
}

func TestLessTotalOrder(t *testing.T) {
	vs := []Value{Null(), Bool(false), Bool(true), Int(-5), Int(10), Float(3.3),
		String("a"), String("b"), IntList([]int64{1}), IntList([]int64{1, 2})}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
	// Re-sorting must be a no-op (the comparator is consistent).
	again := make([]Value, len(vs))
	copy(again, vs)
	sort.Slice(again, func(i, j int) bool { return again[i].Less(again[j]) })
	for i := range vs {
		if vs[i].String() != again[i].String() {
			t.Fatalf("sort not stable under re-sort at %d", i)
		}
	}
	if !Int(2).Less(Float(2.5)) || Float(2.5).Less(Int(2)) {
		t.Error("numeric cross-kind Less failed")
	}
	if !IntList([]int64{1}).Less(IntList([]int64{1, 2})) {
		t.Error("prefix list should be Less")
	}
	if !IntList([]int64{1, 2}).Less(IntList([]int64{1, 3})) {
		t.Error("lexicographic list Less failed")
	}
}

func TestHashDistribution(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := int64(0); i < 2000; i++ {
		seen[Int(i).Hash()] = true
	}
	if len(seen) < 1990 {
		t.Errorf("too many hash collisions among 2000 ints: %d distinct", len(seen))
	}
}

func TestHashNumericAgreement(t *testing.T) {
	if Int(7).Hash() != Float(7.0).Hash() {
		t.Error("Int(7) and Float(7.0) must hash identically (they are Equal)")
	}
}

// Property: Equal implies equal Hash, for randomly generated values.
func TestQuickEqualImpliesHashEqual(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(5) {
		case 0:
			return Int(r.Int63n(50))
		case 1:
			return Float(float64(r.Int63n(50)))
		case 2:
			return String(string(rune('a' + r.Intn(5))))
		case 3:
			return Bool(r.Intn(2) == 0)
		default:
			n := r.Intn(4)
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = r.Int63n(5)
			}
			return IntList(xs)
		}
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		a, b := gen(r), gen(r)
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("Equal values with different hashes: %v %v", a, b)
		}
	}
}

// Property: Less is irreflexive and asymmetric.
func TestQuickLessAsymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Less(va) {
			return false
		}
		if va.Less(vb) && vb.Less(va) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String() is injective over distinct ints (used as group keys).
func TestQuickStringKeyInjective(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return true
		}
		return Int(a).String() != Int(b).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsIntListNonList(t *testing.T) {
	if Int(3).AsIntList() != nil {
		t.Error("AsIntList on non-list must be nil")
	}
	if l := IntList(nil).AsIntList(); l == nil || len(l) != 0 {
		t.Error("empty list roundtrip failed: want a non-nil empty slice")
	}
}

// refValue is Value as it was before the representation was packed into 24
// bytes: one field per payload, 64 bytes, two pointer words. It and its methods
// are kept here, unchanged but for the names, as the reference the packed
// Value is pinned to (TestMatchesReference); Hash is older still — hash/fnv's
// New64a over a kind tag and the payload bytes, as it was before the FNV-1a
// loop was inlined. Σ/HLL estimates, shard routing and every golden depend on
// those exact values.
type refValue struct {
	kind Kind
	i    int64
	f    float64
	s    string
	l    []int64
}

func refBool(b bool) refValue {
	var i int64
	if b {
		i = 1
	}
	return refValue{kind: KindBool, i: i}
}

func refIntList(xs []int64) refValue {
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
	out := cp[:0]
	for i, x := range cp {
		if i == 0 || x != cp[i-1] {
			out = append(out, x)
		}
	}
	return refValue{kind: KindIntList, l: out}
}

func (v refValue) AsBool() bool { return v.kind == KindBool && v.i != 0 }

func (v refValue) AsInt() int64 {
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

func (v refValue) AsFloat() float64 {
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

func (v refValue) AsString() string {
	switch v.kind {
	case KindString:
		return v.s
	default:
		return v.String()
	}
}

func (v refValue) AsIntList() []int64 {
	if v.kind != KindIntList {
		return nil
	}
	return v.l
}

func (v refValue) String() string {
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

func (v refValue) Equal(o refValue) bool {
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

func (v refValue) Less(o refValue) bool {
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

func (v refValue) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	switch v.kind {
	case KindNull:
		h.Write(buf[:1])
	case KindBool, KindInt:
		buf[0] = 2
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.i))
		h.Write(buf[:9])
	case KindFloat:
		if v.f == math.Trunc(v.f) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			buf[0] = 2
			binary.LittleEndian.PutUint64(buf[1:], uint64(int64(v.f)))
		} else {
			buf[0] = 3
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.f))
		}
		h.Write(buf[:9])
	case KindString:
		buf[0] = 4
		h.Write(buf[:1])
		h.Write([]byte(v.s))
	case KindIntList:
		buf[0] = 5
		h.Write(buf[:1])
		for _, x := range v.l {
			binary.LittleEndian.PutUint64(buf[:8], uint64(x))
			h.Write(buf[:8])
		}
	}
	return h.Sum64()
}

// both is one value built both ways.
type both struct {
	v Value
	r refValue
}

func bNull() both             { return both{Null(), refValue{}} }
func bBool(b bool) both       { return both{Bool(b), refBool(b)} }
func bInt(i int64) both       { return both{Int(i), refValue{kind: KindInt, i: i}} }
func bFloat(f float64) both   { return both{Float(f), refValue{kind: KindFloat, f: f}} }
func bString(s string) both   { return both{String(s), refValue{kind: KindString, s: s}} }
func bIntList(l []int64) both { return both{IntList(l), refIntList(l)} }
func bUnknownKind() both      { return both{Value{kind: Kind(99)}, refValue{kind: Kind(99)}} }
func randomBoths(seed int64, n int) []both {
	var out []both
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := int64(rng.Uint64())
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		out = append(out, bInt(x), bFloat(math.Float64frombits(uint64(x))), bFloat(float64(x>>20)),
			bString(string(b)), bIntList([]int64{x, x >> 7, int64(i)}))
	}
	return out
}

// TestHashMatchesFNV pins the inlined hash bit for bit to hash/fnv, kind by
// kind, and checks that hashing allocates nothing.
func TestHashMatchesFNV(t *testing.T) {
	vals := []both{
		bNull(), bBool(false), bBool(true),
		bInt(0), bInt(1), bInt(-1), bInt(math.MaxInt64), bInt(math.MinInt64), bInt(1 << 53),
		bFloat(0), bFloat(1), bFloat(-1), bFloat(1 << 53), bFloat(math.Copysign(0, -1)),
		bFloat(0.5), bFloat(-2.75), bFloat(1e300), bFloat(math.Inf(1)), bFloat(math.Inf(-1)), bFloat(math.NaN()),
		bFloat(math.MaxInt64), bFloat(math.MinInt64), bFloat(math.SmallestNonzeroFloat64),
		bString(""), bString("a"), bString("héllo, wörld"), bString(strings.Repeat("monsoon ", 1000)),
		bIntList(nil), bIntList([]int64{7}), bIntList([]int64{3, -1, 2, 1 << 40, math.MinInt64}),
		bUnknownKind(),
	}
	vals = append(vals, randomBoths(17, 2000)...)
	for _, b := range vals {
		if got, want := b.v.Hash(), b.r.Hash(); got != want {
			t.Errorf("%s %v: Hash = %#x, hash/fnv gives %#x", b.v.Kind(), b.v, got, want)
		}
	}
	if Int(1).Hash() != Float(1).Hash() || Bool(true).Hash() != Int(1).Hash() {
		t.Error("numerically equal values must hash equal")
	}
	long := String(strings.Repeat("x", 4096))
	if n := testing.AllocsPerRun(100, func() { sinkHash += long.Hash() + Int(5).Hash() }); n != 0 {
		t.Errorf("Hash allocates %v times per call, want 0", n)
	}
}

// TestLayout pins what the packing is for: 24 bytes, and a type the compiler
// refuses to compare with == or use as a map key (both would compare the data
// pointer, not the value).
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value must not be comparable")
	}
	for _, v := range []Value{Null(), Bool(true), Int(-1), Float(2.5)} {
		if v.p != nil {
			t.Errorf("%s %v: scalars must keep the data pointer nil", v.Kind(), v)
		}
	}
}

// TestMatchesReference checks the packed Value against the struct it replaced
// (refValue): every accessor, String, AppendTo and Hash value by value, Equal
// and Less over every ordered pair.
func TestMatchesReference(t *testing.T) {
	parent := "  42 \x00 monsoon żółć 3.5e2  "
	vals := []both{
		bNull(), bBool(false), bBool(true), bUnknownKind(),
		bInt(0), bInt(1), bInt(-1), bInt(math.MinInt64), bInt(math.MaxInt64),
		bInt(1<<53 - 1), bInt(1 << 53), bInt(1<<53 + 1),
		bFloat(1<<53 - 1), bFloat(1 << 53), bFloat(1<<53 + 2),
		bFloat(0), bFloat(math.Copysign(0, -1)), bFloat(math.Inf(1)), bFloat(math.Inf(-1)), bFloat(math.NaN()),
		bFloat(1), bFloat(-7), bFloat(0.5), bFloat(-2.75), bFloat(3.9), bFloat(1e300),
		bFloat(math.MaxInt64), bFloat(math.MinInt64), bFloat(math.SmallestNonzeroFloat64),
		bString(""), bString("a"), bString("b"), bString("a\x00"), bString("\x00"), bString("żółć"), bString("héllo, wörld"),
		bString(parent), bString(parent[2:4]), bString(parent[:6]), bString(parent[5:]), bString(parent[len(parent):]),
		bString(" 42 "), bString("42"), bString("4.5"), bString("\t-17\n"), bString(" 1e3 "), bString("nope"), bString("NULL"), bString("true"),
		bIntList(nil), bIntList([]int64{}), bIntList([]int64{7}), bIntList([]int64{1, 2}), bIntList([]int64{1, 3}),
		bIntList([]int64{3, 1, 2, 3, 1}), bIntList([]int64{5, 5, 5, 5}), bIntList([]int64{3, -1, 2, 1 << 40, math.MinInt64, math.MaxInt64, -1}),
	}
	vals = append(vals, randomBoths(21, 40)...)
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, b := range vals {
		v, r := b.v, b.r
		if v.Kind() != r.kind || v.IsNull() != (r.kind == KindNull) {
			t.Errorf("%#v: Kind/IsNull = %v/%v", r, v.Kind(), v.IsNull())
		}
		if v.AsBool() != r.AsBool() || v.AsInt() != r.AsInt() || !sameFloat(v.AsFloat(), r.AsFloat()) {
			t.Errorf("%#v: AsBool/AsInt/AsFloat = %v/%v/%v, reference %v/%v/%v",
				r, v.AsBool(), v.AsInt(), v.AsFloat(), r.AsBool(), r.AsInt(), r.AsFloat())
		}
		if v.AsString() != r.AsString() || v.String() != r.String() {
			t.Errorf("%#v: AsString/String = %q/%q, reference %q/%q", r, v.AsString(), v.String(), r.AsString(), r.String())
		}
		if got, want := string(v.AppendTo([]byte("\x1f"))), "\x1f"+r.String(); got != want {
			t.Errorf("%#v: AppendTo = %q, reference %q", r, got, want)
		}
		if got, want := v.AsIntList(), r.AsIntList(); (got == nil) != (want == nil) || !slices.Equal(got, want) || cap(got) != len(got) {
			t.Errorf("%#v: AsIntList = %#v (cap %d), reference %#v", r, got, cap(got), want)
		}
		if v.Hash() != r.Hash() {
			t.Errorf("%#v: Hash = %#x, reference %#x", r, v.Hash(), r.Hash())
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.v.Equal(b.v), a.r.Equal(b.r); got != want {
				t.Errorf("%#v Equal %#v = %v, reference %v", a.r, b.r, got, want)
			}
			if got, want := a.v.Less(b.v), a.r.Less(b.r); got != want {
				t.Errorf("%#v Less %#v = %v, reference %v", a.r, b.r, got, want)
			}
		}
	}
}

// TestIdentical: Identical is what reflect.DeepEqual meant on the old struct
// for everything but floats, which it compares by bits so that it stays an
// equivalence — and what DeepEqual no longer means on the packed one, where it
// compares the data pointer: two equal strings built separately differ.
func TestIdentical(t *testing.T) {
	x, y := String(strings.Repeat("ab", 3)), String(strings.Repeat("ab", 3))
	if !Identical(x, y) || !x.Equal(y) {
		t.Error("separately built equal strings must be Identical and Equal")
	}
	if reflect.DeepEqual(x, y) {
		t.Error("reflect.DeepEqual no longer sees the data pointer: the ports to Identical can go back")
	}
	vals := []both{
		bNull(), bBool(false), bBool(true), bInt(0), bInt(1), bInt(1 << 53), bFloat(0), bFloat(math.Copysign(0, -1)),
		bFloat(1), bFloat(1 << 53), bFloat(0.5), bFloat(math.Inf(1)), bString(""), bString("1"), bString("a"),
		bString(strings.Repeat("ab", 3)), bString(strings.Repeat("ab", 3)), bIntList(nil), bIntList([]int64{}), bIntList([]int64{1}), bIntList([]int64{1, 1}), bIntList([]int64{1, 2}),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := reflect.DeepEqual(a.r, b.r) && math.Signbit(a.r.f) == math.Signbit(b.r.f)
			if got := Identical(a.v, b.v); got != want {
				t.Errorf("Identical(%#v, %#v) = %v, want %v", a.r, b.r, got, want)
			}
		}
	}
	nan := Float(math.NaN())
	if !Identical(nan, nan) || !Identical(Null(), Null()) {
		t.Error("Identical must be reflexive: NaN with itself, NULL with NULL")
	}
	if Identical(nan, Float(math.Float64frombits(math.Float64bits(math.NaN())^1))) {
		t.Error("NaNs of different bits are not Identical")
	}
	if Identical(Int(1), Float(1)) || Identical(Bool(true), Int(1)) {
		t.Error("Identical must not coerce across kinds")
	}
}

// TestPayloadLiveness: the data pointer is the only reference a Value holds to
// its string's bytes or its list's array, so the collector must see it as one.
// Values are built from freshly allocated strings and lists whose originals are
// dropped at once, the heap is churned and collected twice, and every value
// must read back. Under -race checkptr also checks each unpacking.
func TestPayloadLiveness(t *testing.T) {
	const n = 4096
	text := func(i int) string { return strings.Repeat(strconv.Itoa(i)+"·", 1+i%7) }
	ints := func(i int) []int64 { return []int64{int64(i), int64(i) * 3, -int64(i), int64(i)} }
	vals := make([]Value, 0, 3*n)
	for i := 0; i < n; i++ {
		s := text(i)
		vals = append(vals, String(s), String(s[len(s)/2:]), IntList(ints(i)))
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 1<<14; i++ {
			sinkBytes = make([]byte, 64+i%512)
		}
		runtime.GC()
	}
	for i := 0; i < n; i++ {
		s, l := text(i), refIntList(ints(i)).l
		if got := vals[3*i].AsString(); got != s {
			t.Fatalf("string %d read back as %q, want %q", i, got, s)
		}
		if got := vals[3*i+1].AsString(); got != s[len(s)/2:] {
			t.Fatalf("substring %d read back as %q, want %q", i, got, s[len(s)/2:])
		}
		if got := vals[3*i+2].AsIntList(); !slices.Equal(got, l) {
			t.Fatalf("list %d read back as %v, want %v", i, got, l)
		}
	}
}

var sinkBytes []byte

var sinkHash uint64

func BenchmarkHash(b *testing.B) {
	vals := []Value{Int(123456789), Float(2.5), String("Customer#000001234"), IntList([]int64{1, 2, 3})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHash += vals[i&3].Hash()
	}
}
