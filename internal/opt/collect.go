package opt

import (
	"math/rand"

	"monsoon/internal/engine"
	"monsoon/internal/expr"
	"monsoon/internal/obs"
	"monsoon/internal/query"
	"monsoon/internal/sketch"
	"monsoon/internal/stats"
	"monsoon/internal/table"
)

// CollectFullStats computes exact statistics offline: raw table counts plus
// exact distinct counts for every single-alias term, evaluated over the
// stored tables. This backs the paper's "Postgres" baseline, whose statistics
// collection is "done offline, and not counted" — so nothing here touches a
// budget. Multi-table terms cannot be computed without materializing joins
// and are left missing (the baseline is dropped on the UDF benchmark for
// exactly this reason).
func CollectFullStats(q *query.Query, cat *table.Catalog) *stats.Store {
	st := stats.New()
	for _, r := range q.Rels {
		base := cat.MustGet(r.Table).Renamed(r.Alias)
		st.SetCount(stats.RawKey(r.Alias), float64(base.Count()))
		for _, t := range q.Terms() {
			if t.Aliases.Size() != 1 || !t.Aliases.Contains(r.Alias) {
				continue
			}
			b, ok := t.Fn.Bind(base.Schema)
			if !ok {
				continue
			}
			ex := sketch.NewExact()
			for _, row := range base.Rows {
				v := b.Eval(row)
				if v.IsNull() {
					continue
				}
				ex.Add(v.Hash())
			}
			st.SetMeasured(t.ID, t.Aliases.Key(), ex.Estimate())
		}
	}
	return st
}

// CollectOnDemand implements the "On Demand" option (§6.2.2 option 1): after
// the query arrives but before optimization, run one pass over every base
// table that participates in a predicate, estimating distinct counts for all
// its single-alias terms with HyperLogLog sketches. The scan is charged to
// the budget — this is precisely the overhead the option pays.
func CollectOnDemand(q *query.Query, ex *engine.Exec, budget *engine.Budget) (*stats.Store, error) {
	st := stats.New()
	eng := ex.Engine()
	eng.SeedBaseStats(q, st)
	csp := ex.Obs.Start(obs.KCollect, "on-demand")
	scanned, measured := 0, 0
	defer func() {
		csp.SetRows(scanned, 0).SetNum("terms", float64(measured)).End()
	}()
	for _, r := range q.Rels {
		base := eng.Cat.MustGet(r.Table).Renamed(r.Alias)
		type tracked struct {
			id int
			b  *expr.Binding
			h  *sketch.HLL
		}
		var ts []tracked
		for _, t := range q.Terms() {
			if t.Aliases.Size() != 1 || !t.Aliases.Contains(r.Alias) {
				continue
			}
			b, ok := t.Fn.Bind(base.Schema)
			if !ok {
				continue
			}
			ts = append(ts, tracked{id: t.ID, b: b, h: sketch.NewHLL(14)})
		}
		if len(ts) == 0 {
			continue
		}
		for _, row := range base.Rows {
			if err := budget.Charge(1); err != nil {
				csp.SetStr("err", err.Error())
				return st, err
			}
			scanned++
			for _, t := range ts {
				v := t.b.Eval(row)
				if v.IsNull() {
					continue
				}
				t.h.Add(v.Hash())
			}
		}
		for _, t := range ts {
			st.SetMeasured(t.id, query.NewAliasSet(r.Alias).Key(), t.h.Estimate())
			measured++
		}
	}
	return st, nil
}

// SamplingConfig parameterizes CollectSampling. Zero values take the paper's
// settings: 2% block samples capped at 200,000 tuples per table, and at most
// one million materialized tuples from the product of subsamples per
// multi-table term.
type SamplingConfig struct {
	Fraction  float64
	SampleCap int
	BlockSize int
	CrossCap  int
}

func (c SamplingConfig) withDefaults() SamplingConfig {
	if c.Fraction == 0 {
		c.Fraction = 0.02
	}
	if c.SampleCap == 0 {
		c.SampleCap = 200000
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.CrossCap == 0 {
		c.CrossCap = 1000000
	}
	return c
}

// CollectSampling implements the "Sampling" option (§6.2.2 option 2), after
// DYNO's pilot runs: block-sample each base table, estimate single-alias
// distinct counts with the Charikar et al. GEE estimator, and for multi-table
// UDFs materialize a capped product of the subsamples and estimate from that.
// Sampled and materialized tuples are charged to the budget.
func CollectSampling(q *query.Query, ex *engine.Exec, budget *engine.Budget,
	cfg SamplingConfig, rng *rand.Rand) (*stats.Store, error) {
	cfg = cfg.withDefaults()
	st := stats.New()
	eng := ex.Engine()
	eng.SeedBaseStats(q, st)
	csp := ex.Obs.Start(obs.KCollect, "sampling")
	sampled, crossed := 0, 0
	defer func() {
		csp.SetRows(sampled+crossed, 0).SetNum("sampled", float64(sampled)).
			SetNum("crossed", float64(crossed)).End()
	}()

	samples := make(map[string]*table.Relation) // alias → sampled rows
	for _, r := range q.Rels {
		base := eng.Cat.MustGet(r.Table).Renamed(r.Alias)
		target := int(cfg.Fraction * float64(base.Count()))
		if target < 1 {
			target = 1
		}
		if target > cfg.SampleCap {
			target = cfg.SampleCap
		}
		idx := sketch.BlockSample(base.Count(), cfg.BlockSize, target, rng)
		rows := make([]table.Row, len(idx))
		for i, j := range idx {
			rows[i] = base.Rows[j]
		}
		if err := budget.Charge(len(rows)); err != nil {
			csp.SetStr("err", err.Error())
			return st, err
		}
		sampled += len(rows)
		samples[r.Alias] = table.NewRelation(r.Alias, base.Schema, rows)
	}

	for _, t := range q.Terms() {
		names := t.Aliases.Names()
		if len(names) == 0 {
			continue
		}
		if len(names) == 1 {
			s := samples[names[0]]
			b, ok := t.Fn.Bind(s.Schema)
			if !ok {
				continue
			}
			freqs := map[uint64]int{}
			for _, row := range s.Rows {
				v := b.Eval(row)
				if v.IsNull() {
					continue
				}
				freqs[v.Hash()]++
			}
			pop, _ := st.Count(stats.RawKey(names[0]))
			st.SetMeasured(t.ID, t.Aliases.Key(), sketch.GEE(freqs, s.Count(), int64(pop)))
			continue
		}
		// Multi-table term: iterate the product of subsamples up to the cap.
		schemas := samples[names[0]].Schema
		for _, n := range names[1:] {
			schemas = schemas.Concat(samples[n].Schema)
		}
		b, ok := t.Fn.Bind(schemas)
		if !ok {
			continue
		}
		freqs := map[uint64]int{}
		emitted := 0
		row := make(table.Row, len(schemas.Cols))
		var iterate func(level, offset int) error
		iterate = func(level, offset int) error {
			if emitted >= cfg.CrossCap {
				return nil
			}
			if level == len(names) {
				emitted++
				crossed++
				if err := budget.Charge(1); err != nil {
					return err
				}
				v := b.Eval(row)
				if !v.IsNull() {
					freqs[v.Hash()]++
				}
				return nil
			}
			s := samples[names[level]]
			width := len(s.Schema.Cols)
			for _, r := range s.Rows {
				copy(row[offset:], r)
				if err := iterate(level+1, offset+width); err != nil {
					return err
				}
				if emitted >= cfg.CrossCap {
					return nil
				}
			}
			return nil
		}
		if err := iterate(0, 0); err != nil {
			csp.SetStr("err", err.Error())
			return st, err
		}
		pop := 1.0
		for _, n := range names {
			c, _ := st.Count(stats.RawKey(n))
			pop *= c
		}
		st.SetMeasured(t.ID, t.Aliases.Key(), sketch.GEE(freqs, emitted, int64(pop)))
	}
	return st, nil
}
