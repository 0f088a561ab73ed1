package cost

import (
	"math"
	"testing"

	"monsoon/internal/plan"
)

// fakeLayout implements ShardLayout directly so the cost tests don't depend
// on the storage package.
type fakeLayout struct {
	s    int
	keys map[string]string
}

func (l fakeLayout) ShardCount() int { return l.s }
func (l fakeLayout) ShardKey(t string) (string, bool) {
	k, ok := l.keys[t]
	return k, ok
}

// sec23Layout shards the running example's tables: S on the join column the
// query probes it with (co-partitioned) and T on an unrelated column (so any
// build over T must reshuffle).
func sec23Layout(s int) fakeLayout {
	return fakeLayout{s: s, keys: map[string]string{"R": "a", "S": "k", "T": "x"}}
}

// TestFlatCostExchangeTerm: under a sharded layout the flat §4.4 model adds
// the moved build rows for a reshuffled hash join and nothing for a
// co-partitioned one; a nil or unsharded layout keeps the historical cost.
func TestFlatCostExchangeTerm(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	base := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	rs := plan.NewJoin(leaf("R"), leaf("S")) // build term id(S.k): co-partitioned
	rt := plan.NewJoin(leaf("R"), leaf("T")) // build term id(T.k), layout shards T.x
	costRS, costRT := base.PlanCost(rs), base.PlanCost(rt)

	sharded := &Deriver{Q: q, St: st, Miss: PanicMiss(), Layout: sec23Layout(4)}
	if got := sharded.PlanCost(rs); got != costRS {
		t.Errorf("co-partitioned build cost = %v, want unchanged %v", got, costRS)
	}
	// The reshuffled build moves every build-side row: c(T) = 1e4.
	if got := sharded.PlanCost(rt); got != costRT+1e4 {
		t.Errorf("reshuffled build cost = %v, want %v + 1e4 movement", got, costRT)
	}

	// An unsharded layout and a nil layout are both the legacy model.
	flat := &Deriver{Q: q, St: st, Miss: PanicMiss(), Layout: sec23Layout(1)}
	if got := flat.PlanCost(rt); got != costRT {
		t.Errorf("S=1 layout cost = %v, want legacy %v", got, costRT)
	}
}

// TestFlatCostExchangeNonLeafBuild: a build side that is itself a join can
// never be co-partitioned (its rows are not served by the storage layout),
// so it always pays the movement term when sharded.
func TestFlatCostExchangeNonLeafBuild(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	tree := plan.NewJoin(leaf("T"), plan.NewJoin(leaf("R"), leaf("S")))
	base := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	want := base.PlanCost(tree)
	sharded := &Deriver{Q: q, St: st, Miss: PanicMiss(), Layout: sec23Layout(4)}
	// Outer build side is R⋈S (1e6 rows, reshuffled); the inner join's own
	// build over S stays co-partitioned and free.
	inner, ok := st.Count("R+S")
	if !ok {
		t.Fatal("inner join count not recorded")
	}
	if got := sharded.PlanCost(tree); got != want+inner {
		t.Errorf("non-leaf build cost = %v, want %v + %v movement", got, want, inner)
	}
}

// TestFlatCostNoExchangeForNestedLoop: with no splitting predicate there is
// no hash build and nothing to reshuffle.
func TestFlatCostNoExchangeForNestedLoop(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	cross := plan.NewJoin(leaf("S"), leaf("T")) // no predicate binds S to T
	base := &Deriver{Q: q, St: st, Miss: PanicMiss()}
	want := base.PlanCost(cross)
	sharded := &Deriver{Q: q, St: st, Miss: PanicMiss(), Layout: sec23Layout(16)}
	if got := sharded.PlanCost(cross); got != want {
		t.Errorf("nested-loop cost = %v, want unchanged %v", got, want)
	}
}

// TestProfiledCostExchangeTerm: a calibrated profile prices the moved rows at
// the Exchange rate; the co-partitioned shape stays at the unsharded price.
func TestProfiledCostExchangeTerm(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	p := testProfile()
	p.Exchange = Rate{SecondsPerObject: 17}
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: p, Layout: sec23Layout(4)}

	// Co-partitioned R⋈S: identical to the layoutless profiled cost — scans
	// (1e6+1e4)·1, probe 1e6·5, build 1e4·3, materialize 1e6·13.
	wantRS := 1*(1e6+1e4) + 5*1e6 + 3*1e4 + 13*1e6
	if got := dv.PlanCost(plan.NewJoin(leaf("R"), leaf("S"))); got != wantRS {
		t.Errorf("co-partitioned profiled cost = %v, want %v", got, wantRS)
	}
	// Reshuffled R⋈T adds 1e4 moved rows at rate 17.
	wantRT := wantRS + 17*1e4
	if got := dv.PlanCost(plan.NewJoin(leaf("R"), leaf("T"))); got != wantRT {
		t.Errorf("reshuffled profiled cost = %v, want %v", got, wantRT)
	}
	// Without a layout the same profile never charges the Exchange rate.
	dv.Layout = nil
	if got := dv.PlanCost(plan.NewJoin(leaf("R"), leaf("T"))); got != wantRS {
		t.Errorf("layoutless profiled cost = %v, want %v", got, wantRS)
	}
}

// TestCalibratorExchangeFallback: no span kind observes exchanges, so the
// calibrator must seed the Exchange rate from the hash-build rate instead of
// leaving movement free.
func TestCalibratorExchangeFallback(t *testing.T) {
	cal := NewCalibrator()
	cal.AddSpans(calibSpans())
	p, err := cal.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Exchange.SecondsPerObject <= 0 {
		t.Fatalf("exchange rate = %v, want positive fallback", p.Exchange.SecondsPerObject)
	}
	if p.Exchange.SecondsPerObject != p.HashBuild.SecondsPerObject {
		t.Errorf("exchange rate = %v, want hash-build rate %v",
			p.Exchange.SecondsPerObject, p.HashBuild.SecondsPerObject)
	}
}

// TestZeroRateInfiniteCountIsNotNaN: a profile written before sharding
// carries a zero Exchange rate, and a wide cross product can overflow a count
// to +Inf. A zero rate must contribute exactly 0, not 0 × +Inf = NaN, which
// would poison every average the planner takes over the cost.
func TestZeroRateInfiniteCountIsNotNaN(t *testing.T) {
	q, st := sec23(t, 10000, 10000)
	st.SetCount("T", math.Inf(1))
	p := testProfile() // Exchange 0
	dv := &Deriver{Q: q, St: st, Miss: PanicMiss(), Profile: p, Layout: sec23Layout(4)}
	got := dv.PlanCost(plan.NewJoin(leaf("R"), leaf("T"))) // reshuffled build over T
	if math.IsNaN(got) {
		t.Fatalf("PlanCost = NaN, want +Inf")
	}
	if !math.IsInf(got, 1) {
		t.Errorf("PlanCost = %v, want +Inf", got)
	}
}
