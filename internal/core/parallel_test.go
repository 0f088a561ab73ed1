package core

import (
	"reflect"
	"runtime"
	"testing"

	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/query"
	"monsoon/internal/table"
	"monsoon/internal/value"
)

// bigFixture is the core-level parallel fixture: tables large enough that the
// engine's parallel paths (threshold 4096 rows) actually engage during the
// MDP loop's EXECUTE rounds.
func bigFixture() (*table.Catalog, *query.Query) {
	cat := table.NewCatalog()
	rs := table.NewSchema(
		table.Column{Table: "BR", Name: "a", Kind: value.KindInt},
		table.Column{Table: "BR", Name: "b", Kind: value.KindInt},
	)
	rb := table.NewBuilder("BR", rs)
	for i := 0; i < 20000; i++ {
		rb.Add(value.Int(int64(i%800)), value.Int(int64(i%11)))
	}
	cat.Put(rb.Build())
	ss := table.NewSchema(table.Column{Table: "BS", Name: "k", Kind: value.KindInt})
	sb := table.NewBuilder("BS", ss)
	for i := 0; i < 6000; i++ {
		sb.Add(value.Int(int64(i % 800)))
	}
	cat.Put(sb.Build())
	q := query.NewBuilder("bigrst").
		Rel("BR", "BR").Rel("BS", "BS").
		Join(expr.Identity("BR.a"), expr.Identity("BS.k")).
		Select(expr.Identity("BR.b"), value.Int(4)).
		MustBuild()
	return cat, q
}

// TestRunSerialParallelIdentical is the driver-level determinism gate: the
// full MDP loop — MCTS planning, Σ passes, hardened statistics, EXECUTE
// rounds — must settle on the same multi-step plan and the same answer
// whether the engine runs serial or fanned out.
func TestRunSerialParallelIdentical(t *testing.T) {
	run := func(par int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		cat, q := bigFixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{Seed: 13, Iterations: 200})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", par, err)
		}
		return res
	}
	ser := run(1)
	for _, par := range []int{0, 4} {
		p := run(par)
		if p.Value != ser.Value || p.Rows != ser.Rows || p.Produced != ser.Produced {
			t.Errorf("GOMAXPROCS %d: value/rows/produced %v/%d/%v, serial %v/%d/%v",
				par, p.Value, p.Rows, p.Produced, ser.Value, ser.Rows, ser.Produced)
		}
		if p.Actions != ser.Actions || p.Executes != ser.Executes || p.SigmaOps != ser.SigmaOps {
			t.Errorf("GOMAXPROCS %d: MDP trajectory diverged: %+v vs %+v", par, p, ser)
		}
		if len(p.Executed) != len(ser.Executed) {
			t.Fatalf("GOMAXPROCS %d: %d executed trees, serial %d", par, len(p.Executed), len(ser.Executed))
		}
		for i := range p.Executed {
			if p.Executed[i].String() != ser.Executed[i].String() {
				t.Errorf("GOMAXPROCS %d: executed tree %d is %s, serial %s",
					par, i, p.Executed[i], ser.Executed[i])
			}
		}
	}
}

// TestPlanParallelismGolden is the planner-side determinism gate, the mirror
// of TestRunSerialParallelIdentical: GOMAXPROCS also caps the OS threads the
// root-parallel MCTS shards run on, and every width — serial, fewer threads
// than shards, more threads than shards — must produce the byte-identical
// run: same result accounting, same executed trees, same trace lines, and
// plan spans whose search statistics match attribute-for-attribute.
func TestPlanParallelismGolden(t *testing.T) {
	type capture struct {
		res   *Result
		lines []string
		plans []*obs.Span
	}
	run := func(workers int) capture {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		cat, q := fixture()
		eng := engine.New(cat)
		col := &obs.Collector{}
		var lines []string
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 11, Iterations: 300,
			Sink: obs.Multi(col, obs.MessageSink(func(s string) { lines = append(lines, s) })),
		})
		if err != nil {
			t.Fatalf("plan GOMAXPROCS %d: %v", workers, err)
		}
		return capture{res: res, lines: lines, plans: col.SpansOf(obs.KPlan)}
	}
	ser := run(1)
	for _, w := range []int{0, 2, 7, 64} {
		p := run(w)
		if p.res.Value != ser.res.Value || p.res.Rows != ser.res.Rows ||
			p.res.Produced != ser.res.Produced || p.res.Actions != ser.res.Actions ||
			p.res.Executes != ser.res.Executes || p.res.SigmaOps != ser.res.SigmaOps {
			t.Errorf("plan GOMAXPROCS %d: result diverged: %+v vs serial %+v", w, p.res, ser.res)
		}
		if !reflect.DeepEqual(runTrees(p.res), runTrees(ser.res)) {
			t.Errorf("plan GOMAXPROCS %d: trees %q, serial %q", w, runTrees(p.res), runTrees(ser.res))
		}
		if !reflect.DeepEqual(p.lines, ser.lines) {
			t.Errorf("plan GOMAXPROCS %d: trace\n%q\nserial\n%q", w, p.lines, ser.lines)
		}
		if len(p.plans) != len(ser.plans) {
			t.Fatalf("plan GOMAXPROCS %d: %d plan spans, serial %d", w, len(p.plans), len(ser.plans))
		}
		for i, sp := range p.plans {
			for _, key := range []string{"rollouts", "root_actions", "tree_depth", "nodes"} {
				if sp.Num[key] != ser.plans[i].Num[key] {
					t.Errorf("plan GOMAXPROCS %d span %d: %s = %v, serial %v",
						w, i, key, sp.Num[key], ser.plans[i].Num[key])
				}
			}
		}
	}
}

// TestPlanSpanWorkersAttr pins the plan_workers telemetry contract: the
// attribute is absent on serial planning spans and reports the thread count
// on parallel ones, keeping serial and parallel span streams comparable.
func TestPlanSpanWorkersAttr(t *testing.T) {
	for _, c := range []struct {
		workers int
		want    float64 // 0 = attribute absent
	}{{1, 0}, {2, 2}} {
		prev := runtime.GOMAXPROCS(c.workers)
		cat, q := fixture()
		eng := engine.New(cat)
		col := &obs.Collector{}
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 7, Iterations: 300, Sink: col,
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.Actions == 0 {
			t.Fatal("fixture run planned no actions")
		}
		for i, sp := range col.SpansOf(obs.KPlan) {
			got, ok := sp.Num[obs.AttrPlanWorkers]
			if c.want == 0 && ok {
				t.Errorf("workers=%d span %d: plan_workers = %v, want absent on serial spans", c.workers, i, got)
			}
			// Fast-path spans never search, so they stay serial at any cap.
			if c.want > 0 && sp.Str["fast_path"] == "" && got != c.want {
				t.Errorf("workers=%d span %d: plan_workers = %v, want %v", c.workers, i, got, c.want)
			}
		}
	}
}

// TestPlanSpansCarryStats pins the plan-span telemetry: when a sink is
// attached, every MCTS plan span must carry the planner's rollout and
// root-action statistics. (A previous guard compared the wrong variable and
// silently dropped these attributes whenever tracing was on.)
func TestPlanSpansCarryStats(t *testing.T) {
	cat, q := fixture()
	eng := engine.New(cat)
	col := &obs.Collector{}
	res, err := Run(q, eng, &engine.Budget{}, Config{Seed: 7, Iterations: 300, Sink: col})
	if err != nil {
		t.Fatal(err)
	}
	plans := col.SpansOf(obs.KPlan)
	if len(plans) != res.Actions {
		t.Fatalf("plan spans = %d, want one per action = %d", len(plans), res.Actions)
	}
	for i, sp := range plans {
		for _, key := range []string{"rollouts", "root_actions", "tree_depth", "nodes"} {
			if _, ok := sp.Num[key]; !ok {
				t.Errorf("plan span %d missing %q attribute (attrs: %v)", i, key, sp.Num)
			}
		}
		// A fast-path span legitimately reports zero rollouts; a full MCTS
		// call must report at least one.
		if sp.Str["fast_path"] == "" && sp.Num["rollouts"] < 1 {
			t.Errorf("plan span %d: full MCTS call reports %v rollouts", i, sp.Num["rollouts"])
		}
		if sp.Num["root_actions"] < 1 {
			t.Errorf("plan span %d: root_actions = %v, want >= 1", i, sp.Num["root_actions"])
		}
	}
}
