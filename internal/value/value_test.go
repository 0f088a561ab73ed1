package value

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
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
	if !reflect.DeepEqual(IntList(nil).AsIntList(), []int64{}) {
		t.Error("empty list roundtrip failed")
	}
}

// refHash is Hash as it was written before the FNV-1a loop was inlined:
// hash/fnv's New64a over a kind tag and the payload bytes. Σ/HLL estimates,
// shard routing and every golden depend on these exact values.
func refHash(v Value) uint64 {
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

// TestHashMatchesFNV pins the inlined hash bit for bit to hash/fnv, kind by
// kind, and checks that hashing allocates nothing.
func TestHashMatchesFNV(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64), Int(1 << 53),
		Float(0), Float(1), Float(-1), Float(1 << 53), Float(-0.0),
		Float(0.5), Float(-2.75), Float(1e300), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(math.MaxInt64), Float(math.MinInt64), Float(math.SmallestNonzeroFloat64),
		String(""), String("a"), String("héllo, wörld"), String(strings.Repeat("monsoon ", 1000)),
		IntList(nil), IntList([]int64{7}), IntList([]int64{3, -1, 2, 1 << 40, math.MinInt64}),
		{kind: Kind(99)},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		x := int64(rng.Uint64())
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		vals = append(vals, Int(x), Float(math.Float64frombits(uint64(x))), Float(float64(x>>20)),
			String(string(b)), IntList([]int64{x, x >> 7, int64(i)}))
	}
	for _, v := range vals {
		if got, want := v.Hash(), refHash(v); got != want {
			t.Errorf("%s %v: Hash = %#x, hash/fnv gives %#x", v.Kind(), v, got, want)
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

var sinkHash uint64

func BenchmarkHash(b *testing.B) {
	vals := []Value{Int(123456789), Float(2.5), String("Customer#000001234"), IntList([]int64{1, 2, 3})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHash += vals[i&3].Hash()
	}
}
