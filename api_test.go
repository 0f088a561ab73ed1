package monsoon

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"monsoon/internal/obs"
	"monsoon/internal/table"
)

// buildWorld creates a small two-table catalog through the public API only.
func buildWorld() *Catalog {
	cat := NewCatalog()
	ev := NewTable("events",
		Col("user_id", KindInt),
		Col("when", KindString),
	)
	for i := 0; i < 5000; i++ {
		day := 10 + i%3
		ev.Add(Int(int64(i%200)), Str("2019-01-"+twoDigits(day)+" 12:00:00"))
	}
	cat.Put(ev.Build())
	us := NewTable("users",
		Col("id", KindInt),
		Col("ip", KindString),
	)
	for i := 0; i < 200; i++ {
		us.Add(Int(int64(i)), Str("10.1.0.1"))
	}
	cat.Put(us.Build())
	return cat
}

func twoDigits(n int) string {
	if n < 10 {
		return "0" + string(rune('0'+n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func buildQuery() *Query {
	return NewQuery("api-test").
		Rel("e", "events").Rel("u", "users").
		Join(Identity("e.user_id"), Identity("u.id")).
		Select(ExtractDate("e.when"), Str("2019-01-11")).
		MustBuild()
}

func TestRunThroughPublicAPI(t *testing.T) {
	cat := buildWorld()
	var traced []string
	rep, err := Run(buildQuery(), cat,
		WithSeed(5),
		WithIterations(150),
		WithPrior(PriorByName("Spike and Slab")),
		WithTrace(func(s string) { traced = append(traced, s) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	// 5000 events / 3 days, joined 1:1 to users.
	if rep.Rows < 1500 || rep.Rows > 1800 {
		t.Errorf("rows = %d, want ~1667", rep.Rows)
	}
	if rep.Output == nil || rep.Output.Count() != rep.Rows {
		t.Error("Output relation must match Rows")
	}
	if len(traced) == 0 {
		t.Error("trace must fire")
	}
	if rep.Executes < 1 || rep.Produced <= 0 {
		t.Errorf("implausible report: %+v", rep.Result)
	}
}

// TestWithTraceAndEventSink: a line callback and an event sink on one run,
// given in either order, both receive every trace line of the run.
func TestWithTraceAndEventSink(t *testing.T) {
	for _, traceFirst := range []bool{true, false} {
		var lines []string
		col := &TraceCollector{}
		opts := []RunOption{WithTrace(func(s string) { lines = append(lines, s) }), WithEventSink(col)}
		if !traceFirst {
			opts[0], opts[1] = opts[1], opts[0]
		}
		if _, err := Run(buildQuery(), buildWorld(), append(opts, WithSeed(5), WithIterations(150))...); err != nil {
			t.Fatal(err)
		}
		if len(lines) == 0 || !reflect.DeepEqual(lines, col.Messages) {
			t.Errorf("trace first %v: callback got %q, sink got %q", traceFirst, lines, col.Messages)
		}
	}
}

func TestRunStrategiesAgree(t *testing.T) {
	cat := buildWorld()
	a, err := Run(buildQuery(), cat, WithSeed(1), WithIterations(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(buildQuery(), buildWorld(), WithSeed(1), WithIterations(100), WithEpsilonGreedy())
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != b.Rows {
		t.Errorf("strategies disagree on result: %d vs %d", a.Rows, b.Rows)
	}
}

// TestReportOutputOutlivesRelease: a Report keeps its Output and nothing else
// of its run's execution scope, so the Release it inherits from Result gives
// no memory back to the engine — its rows read the same after it and after
// later runs of the same join have taken whatever the engine had to reuse.
func TestReportOutputOutlivesRelease(t *testing.T) {
	cat := buildWorld()
	rep, err := Run(buildQuery(), cat, WithSeed(5), WithIterations(150))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Output
	want := make([]table.Row, len(out.Rows))
	for i, r := range out.Rows {
		want[i] = append(table.Row(nil), r...)
	}
	rep.Release()
	all := NewQuery("api-test-all").
		Rel("e", "events").Rel("u", "users").
		Join(Identity("e.user_id"), Identity("u.id")).
		MustBuild()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := Run(all, cat, WithSeed(seed), WithIterations(50)); err != nil {
			t.Fatal(err)
		}
	}
	if !table.IdenticalRows(out.Rows, want) {
		t.Error("a Report's rows changed after its Release and later runs")
	}
}

// TestWithShardsDeterministic pins the sharding guarantee at the public API:
// every shard count returns the same query answer, and within one layout a
// repeated run reproduces the exact output rows.
func TestWithShardsDeterministic(t *testing.T) {
	run := func(shards int) *Report {
		rep, err := Run(buildQuery(), buildWorld(), WithSeed(5), WithIterations(150), WithShards(shards))
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		return rep
	}
	unsharded := run(1)
	for _, s := range []int{1, 2, 4, 16} {
		ref := run(s)
		if ref.Rows != unsharded.Rows || ref.Value != unsharded.Value {
			t.Errorf("shards %d: rows/value %d/%g, unsharded %d/%g",
				s, ref.Rows, ref.Value, unsharded.Rows, unsharded.Value)
		}
		rep := run(s)
		if rep.Rows != ref.Rows || rep.Value != ref.Value || rep.Produced != ref.Produced {
			t.Errorf("shards %d repeat: rows/value/produced %d/%g/%g, want %d/%g/%g",
				s, rep.Rows, rep.Value, rep.Produced, ref.Rows, ref.Value, ref.Produced)
		}
		if !table.IdenticalRows(rep.Output.Rows, ref.Output.Rows) {
			t.Errorf("shards %d: output rows differ within the same layout", s)
		}
	}
}

// TestWithShardsLayoutPersists pins WithShards on a catalog reused across
// runs: the layout persists, n <= 0 keeps it, and 1 clears it.
func TestWithShardsLayoutPersists(t *testing.T) {
	cat := buildWorld()
	for _, step := range []struct{ n, want int }{{4, 4}, {0, 4}, {-1, 4}, {1, 1}} {
		if _, err := Run(buildQuery(), cat, WithSeed(5), WithIterations(150), WithShards(step.n)); err != nil {
			t.Fatalf("WithShards(%d): %v", step.n, err)
		}
		if got := cat.ShardCount(); got != step.want {
			t.Errorf("after WithShards(%d): ShardCount() = %d, want %d", step.n, got, step.want)
		}
	}
}

func TestRunBudgets(t *testing.T) {
	cat := buildWorld()
	if _, err := Run(buildQuery(), cat, WithSeed(2), WithMaxTuples(10)); !errors.Is(err, ErrBudget) {
		t.Errorf("tuple budget: err = %v, want ErrBudget", err)
	}
	if _, err := Run(buildQuery(), cat, WithSeed(2), WithTimeout(time.Nanosecond)); !errors.Is(err, ErrBudget) {
		t.Errorf("timeout: err = %v, want ErrBudget", err)
	}
}

// TestBuildRejectsAliasWithKeySeparator: an alias holding '+' reads as two
// aliases in a statistics key, so its input size would be recorded under a
// text no lookup by set finds. Build refuses it instead of Run panicking.
func TestBuildRejectsAliasWithKeySeparator(t *testing.T) {
	_, err := NewQuery("q").
		Rel("a", "events").Rel("x+y", "users").
		Join(Identity("a.user_id"), Identity("x+y.id")).
		Build()
	if err == nil || !strings.Contains(err.Error(), `"x+y"`) {
		t.Fatalf("Build error %v, want one naming the alias \"x+y\"", err)
	}
}

func TestNewUDF(t *testing.T) {
	double := NewUDF("double", []string{"e.user_id"}, func(args []Value) Value {
		return Int(args[0].AsInt() * 2)
	})
	if double.Name != "double" || len(double.Args) != 1 {
		t.Error("NewUDF wiring wrong")
	}
	if got := double.Fn([]Value{Int(21)}); got.AsInt() != 42 {
		t.Errorf("NewUDF fn = %v", got)
	}
	cat := buildWorld()
	q := NewQuery("custom-udf").
		Rel("e", "events").Rel("u", "users").
		Join(double, NewUDF("double2", []string{"u.id"}, func(args []Value) Value {
			return Int(args[0].AsInt() * 2)
		})).
		MustBuild()
	rep, err := Run(q, cat, WithSeed(9), WithIterations(100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 5000 {
		t.Errorf("custom UDF join rows = %d, want 5000", rep.Rows)
	}
}

func TestWithKnownDistinct(t *testing.T) {
	cat := buildWorld()
	// Declare the events-side join key's distinct count as known (§3.1).
	left := Identity("e.user_id")
	right := Identity("u.id")
	q := NewQuery("known").
		Rel("e", "events").Rel("u", "users").
		Join(left, right).
		MustBuild()
	rep, err := Run(q, cat,
		WithSeed(4),
		WithIterations(100),
		WithKnownDistinct(left, 200),
		WithKnownDistinct(right, 200),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 5000 {
		t.Errorf("rows = %d, want 5000", rep.Rows)
	}
	// With both sides fully known there is nothing worth probing.
	if rep.SigmaOps != 0 {
		t.Errorf("known statistics should suppress Σ probes, got %d", rep.SigmaOps)
	}
}

func TestPriorHelpers(t *testing.T) {
	if len(Priors()) != 7 {
		t.Error("Priors() must return the seven Table 2 priors")
	}
	if PriorByName("nope") != nil {
		t.Error("unknown prior must be nil")
	}
	if PriorDensity(PriorByName("Uniform"), 0.5) != 1 {
		t.Error("uniform density must be 1")
	}
}

func TestValueConstructors(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(2.5).AsFloat() != 2.5 || Str("x").AsString() != "x" {
		t.Error("scalar constructors broken")
	}
	if !Boolean(true).AsBool() || !Null().IsNull() {
		t.Error("bool/null constructors broken")
	}
	if IntList([]int64{2, 1}).String() != "[1,2]" {
		t.Error("IntList constructor broken")
	}
}

func TestNewTableQualifiesColumns(t *testing.T) {
	b := NewTable("t", Col("a", KindInt))
	b.Add(Int(1))
	rel := b.Build()
	if _, ok := rel.Schema.Lookup("t.a"); !ok {
		t.Error("NewTable must qualify columns with the table name")
	}
}

func TestUDFLibraryExports(t *testing.T) {
	// Smoke-check the exported UDF constructors produce working functions.
	if ExtractDate("a.b").Fn([]Value{Str("2020-05-05 01:02:03")}).AsString() != "2020-05-05" {
		t.Error("ExtractDate broken")
	}
	if City("a.b").Fn([]Value{Str("10.2.3.4")}).AsInt() != 10*256+2 {
		t.Error("City broken")
	}
	if Lower("a.b").Fn([]Value{Str("XY")}).AsString() != "xy" {
		t.Error("Lower broken")
	}
	if Prefix("a.b", 1).Fn([]Value{Str("xyz")}).AsString() != "x" {
		t.Error("Prefix broken")
	}
	if YearOf("a.b").Fn([]Value{Str("1999-01-01")}).AsInt() != 1999 {
		t.Error("YearOf broken")
	}
	if !strings.HasPrefix(Sprintf("a.b", "K%03d").Fn([]Value{Int(7)}).AsString(), "K007") {
		t.Error("Sprintf broken")
	}
	if HashMod("a.b", 8).Fn([]Value{Int(123)}).AsInt() >= 8 {
		t.Error("HashMod broken")
	}
	if ConcatKey("a.b", "c.d").Fn([]Value{Str("x"), Str("y")}).AsString() != "x|y" {
		t.Error("ConcatKey broken")
	}
	if SumMod("a.b", "c.d", 5).Fn([]Value{Int(7), Int(4)}).AsInt() != 1 {
		t.Error("SumMod broken")
	}
	if SetEqualsKey("a.b").Fn([]Value{IntList([]int64{2, 1})}).AsString() != "[1,2]" {
		t.Error("SetEqualsKey broken")
	}
	if Between("a.b", "<", ">").Fn([]Value{Str("a<k>b")}).AsString() != "k" {
		t.Error("Between broken")
	}
	if Identity("a.b").Fn([]Value{Int(9)}).AsInt() != 9 {
		t.Error("Identity broken")
	}
}

func TestParseQueryEndToEnd(t *testing.T) {
	cat := buildWorld()
	q, err := ParseQuery("sql-quickstart", `
		SELECT COUNT(*)
		FROM events e, users u
		WHERE e.user_id = u.id AND ExtractDate(e.when) = '2019-01-11'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(q, cat, WithSeed(6), WithIterations(100))
	if err != nil {
		t.Fatal(err)
	}
	// Must agree with the builder-constructed equivalent.
	ref, err := Run(buildQuery(), buildWorld(), WithSeed(6), WithIterations(100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != ref.Rows {
		t.Errorf("SQL query rows = %d, builder rows = %d", rep.Rows, ref.Rows)
	}
}

func TestParseQueryCustomUDF(t *testing.T) {
	reg := NewUDFRegistry()
	reg.Register("Bucket", func(attrs []string, consts []Value) (*UDF, error) {
		return HashMod(attrs[0], consts[0].AsInt()), nil
	})
	q, err := ParseQuery("custom", `SELECT COUNT(*) FROM events e WHERE Bucket(e.user_id, 4) = 1`, reg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(q, buildWorld(), WithSeed(2), WithIterations(80))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows == 0 || rep.Rows == 5000 {
		t.Errorf("bucket filter rows = %d, want a proper subset", rep.Rows)
	}
}

func TestGOMAXPROCSParallelDeterministic(t *testing.T) {
	// The events table (5000 rows) crosses the engine's parallel threshold,
	// so the fanned-out runs below genuinely exercise the worker pool; the
	// report must nonetheless be bit-identical to the serial run.
	run := func(procs int) *Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := Run(buildQuery(), buildWorld(), WithSeed(5), WithIterations(150))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	for _, rep := range []*Report{run(0), run(4)} {
		if rep.Rows != serial.Rows || rep.Value != serial.Value || rep.Produced != serial.Produced {
			t.Errorf("parallel run diverged: rows/value/produced %d/%v/%v, serial %d/%v/%v",
				rep.Rows, rep.Value, rep.Produced, serial.Rows, serial.Value, serial.Produced)
		}
		if !table.IdenticalRows(rep.Output.Rows, serial.Output.Rows) {
			t.Error("parallel output relation differs from serial (content or order)")
		}
	}
}

func TestGOMAXPROCSPlanParallelDeterministic(t *testing.T) {
	// GOMAXPROCS caps the planner too: any width on the root-parallel MCTS
	// shards — including more threads than shards — must reproduce the
	// serial run bit-for-bit, down to the trace lines the searched plans
	// emit.
	run := func(procs int) (*Report, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var lines []string
		rep, err := Run(buildQuery(), buildWorld(), WithSeed(5), WithIterations(300),
			WithTrace(func(s string) { lines = append(lines, s) }))
		if err != nil {
			t.Fatal(err)
		}
		return rep, lines
	}
	serial, serialLines := run(1)
	for _, w := range []int{0, 2, 64} {
		rep, lines := run(w)
		if rep.Rows != serial.Rows || rep.Value != serial.Value || rep.Produced != serial.Produced ||
			rep.Actions != serial.Actions || rep.Executes != serial.Executes {
			t.Errorf("GOMAXPROCS %d diverged: %+v vs serial %+v", w, rep.Result, serial.Result)
		}
		if !reflect.DeepEqual(lines, serialLines) {
			t.Errorf("GOMAXPROCS %d trace:\n%q\nserial:\n%q", w, lines, serialLines)
		}
		if !table.IdenticalRows(rep.Output.Rows, serial.Output.Rows) {
			t.Errorf("GOMAXPROCS %d output relation differs from serial", w)
		}
	}
}

// TestGOMAXPROCSOneRunsNothingInParallel: at GOMAXPROCS 1 the run stays on the
// calling goroutine, the planner's search shards included: no plan span
// reports a fan-out and no operator fans out to workers.
func TestGOMAXPROCSOneRunsNothingInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	col := &TraceCollector{}
	if _, err := Run(buildQuery(), buildWorld(), WithSeed(5), WithIterations(300),
		WithEventSink(col)); err != nil {
		t.Fatal(err)
	}
	plans := col.SpansOf(obs.KPlan)
	if len(plans) == 0 {
		t.Fatal("the run planned nothing")
	}
	for i, sp := range plans {
		if w, ok := sp.Num[obs.AttrPlanWorkers]; ok {
			t.Errorf("plan span %d of %d searched on %v threads, want the calling goroutine alone", i, len(plans), w)
		}
	}
	if n := len(col.SpansOf(obs.KWorker)); n != 0 {
		t.Errorf("%d worker spans, want none", n)
	}
}
