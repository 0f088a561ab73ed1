package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"monsoon/internal/bench/tpch"
	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/plan"
	"monsoon/internal/query"
)

// ShardingJSON is the machine-readable artifact the sharding study writes
// (BENCH_sharding.json) so CI can assert on the measurements without parsing
// the text table.
type ShardingJSON struct {
	Scale  string          `json:"scale"`
	SF     float64         `json:"sf"`
	Reps   int             `json:"reps"`
	Shards []int           `json:"shards"`
	Shapes []ShardingShape `json:"shapes"`
}

// ShardingShape is one join shape's measurements across shard counts.
type ShardingShape struct {
	Name string        `json:"name"`
	Plan string        `json:"plan"`
	Runs []ShardingRun `json:"runs"`
}

// ShardingRun is one (shape, shard count) cell: the min-of-reps wall time
// plus the run's result size and exchange telemetry.
type ShardingRun struct {
	ShardCount     int     `json:"shard_count"`
	Seconds        float64 `json:"seconds"`
	Rows           int     `json:"rows"`
	LocalJoins     int64   `json:"exchange_joins_local"`
	ReshuffleJoins int64   `json:"exchange_joins_reshuffle"`
	MovedRows      int64   `json:"exchange_rows"`
}

// shardingShapes builds the two fixed join shapes the study times. Both are
// two-table TPC-H hash joins with the build side on the right, differing only
// in whether the build's join key is the column the layout shards on:
//
//   - copart: orders ⋈ lineitem on the order key — lineitem is stored
//     sharded on l_orderkey, so the build is shard-local (zero moved rows).
//   - reshuffle: customer ⋈ orders on the customer key — orders is stored
//     sharded on o_orderkey, so every build row crosses a shard boundary.
func shardingShapes() []struct {
	name string
	q    *query.Query
	tree *plan.Node
} {
	lf := func(n string) *plan.Node { return plan.NewLeaf(query.NewAliasSet(n)) }
	copart := query.NewBuilder("shard-copart").
		Rel("o", "orders").Rel("l", "lineitem").
		Join(expr.Identity("o.o_orderkey"), expr.Identity("l.l_orderkey")).
		MustBuild()
	reshuffle := query.NewBuilder("shard-reshuffle").
		Rel("c", "customer").Rel("o", "orders").
		Join(expr.Identity("c.c_custkey"), expr.Identity("o.o_custkey")).
		MustBuild()
	return []struct {
		name string
		q    *query.Query
		tree *plan.Node
	}{
		{"copart", copart, plan.NewJoin(lf("o"), lf("l"))},
		{"reshuffle", reshuffle, plan.NewJoin(lf("c"), lf("o"))},
	}
}

// ShardingStudy measures the exchange-style execution paths: the same two
// fixed join plans run at shard counts 1, 4, and 16 over TPC-H at 50× the
// campaign scale factor, timing the full ExecTree drain. The co-partitioned
// shape runs shard-local (per-shard build scan, sub-hash-tables); the
// reshuffled shape pays the routing of its whole build input. Every cell
// must return the bit-identical result, validated against the S=1 run.
// Besides the text table, the study writes BENCH_sharding.json to the
// working directory.
func (r *Runner) ShardingStudy(w io.Writer) error {
	sc := r.Scale
	sf := sc.TPCHSF * 50
	r.log("ShardingStudy: generating TPC-H (SF %.4g)...", sf)
	cat := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: sc.Seed})

	shardCounts := []int{1, 4, 16}
	const reps = 3
	out := ShardingJSON{Scale: sc.Name, SF: sf, Reps: reps, Shards: shardCounts}

	fmt.Fprintf(w, "Sharding study: co-partitioned vs reshuffled hash joins, TPC-H at 50x campaign scale (SF %.4g)\n", sf)
	fmt.Fprintf(w, "fixed plans, full ExecTree drain, min of %d runs\n", reps)
	fmt.Fprintf(w, "%-11s %-28s %-8s %-10s %-10s %-12s %-10s\n",
		"Shape", "Plan", "Shards", "Seconds", "Rows", "Moved-rows", "vs S=1")
	for _, sh := range shardingShapes() {
		shape := ShardingShape{Name: sh.name, Plan: sh.tree.String()}
		var refRows int
		var refValue, refSeconds float64
		for _, s := range shardCounts {
			cat.Shard(s)
			var best float64
			var run ShardingRun
			var val float64
			for rep := 0; rep < reps; rep++ {
				runtime.GC()
				reg := obs.NewRegistry()
				ec := sc.exec()
				ec.Metrics = reg
				ex := engine.New(cat).NewExec(ec)
				start := time.Now()
				b := &engine.Budget{MaxTuples: 4 * sc.MaxTuples, Deadline: start.Add(10 * sc.Timeout)}
				rel, _, err := ex.ExecTree(sh.q, sh.tree, b)
				secs := time.Since(start).Seconds()
				if err != nil {
					return fmt.Errorf("sharding study: %s S=%d: %w", sh.name, s, err)
				}
				v, err := engine.FinalAggregate(sh.q, rel)
				if err != nil {
					return fmt.Errorf("sharding study: %s S=%d aggregate: %w", sh.name, s, err)
				}
				if rep == 0 || secs < best {
					best = secs
				}
				run = ShardingRun{
					ShardCount:     s,
					Rows:           rel.Count(),
					LocalJoins:     reg.Counter("monsoon.exchange.joins.local").Value(),
					ReshuffleJoins: reg.Counter("monsoon.exchange.joins.reshuffle").Value(),
					MovedRows:      reg.Counter("monsoon.exchange.rows").Value(),
				}
				val = v
			}
			run.Seconds = best
			if s == 1 {
				refRows, refValue, refSeconds = run.Rows, val, best
			} else if run.Rows != refRows || val != refValue {
				return fmt.Errorf("sharding study: %s S=%d result (%d rows, %g) diverged from S=1 (%d rows, %g)",
					sh.name, s, run.Rows, val, refRows, refValue)
			}
			rel := "-"
			if s != 1 && refSeconds > 0 {
				rel = fmt.Sprintf("%+.1f%%", 100*(best-refSeconds)/refSeconds)
			}
			fmt.Fprintf(w, "%-11s %-28s %-8d %-10.4f %-10d %-12d %-10s\n",
				sh.name, shape.Plan, s, best, run.Rows, run.MovedRows, rel)
			shape.Runs = append(shape.Runs, run)
		}
		out.Shapes = append(out.Shapes, shape)
	}
	cat.Shard(1)
	fmt.Fprintln(w, "every cell reproduced the S=1 result exactly")

	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_sharding.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("sharding study: write artifact: %w", err)
	}
	fmt.Fprintln(w, "wrote BENCH_sharding.json")
	return nil
}
