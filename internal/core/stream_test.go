package core

import (
	"testing"

	"monsoon/internal/engine"
)

// TestRunStreamingBatchSizesIdentical is the driver-level mirror of the
// engine's streaming≡materialized gate: the full MDP loop — MCTS planning, Σ
// passes, hardened statistics, EXECUTE rounds — must settle on the same
// multi-step plan and the same answer at every pipeline batch size, because
// batching changes when rows move, never what the optimizer observes.
func TestRunStreamingBatchSizesIdentical(t *testing.T) {
	run := func(batch int) *Result {
		cat, q := bigFixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 13, Iterations: 200, BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		return res
	}
	ref := run(1 << 30) // materialized reference
	for _, batch := range []int{1, 7, 4096, 1 << 20, 0} {
		r := run(batch)
		if r.Value != ref.Value || r.Rows != ref.Rows || r.Produced != ref.Produced {
			t.Errorf("batch %d: value/rows/produced %v/%d/%v, materialized %v/%d/%v",
				batch, r.Value, r.Rows, r.Produced, ref.Value, ref.Rows, ref.Produced)
		}
		if r.Actions != ref.Actions || r.Executes != ref.Executes || r.SigmaOps != ref.SigmaOps {
			t.Errorf("batch %d: MDP trajectory diverged: %+v vs %+v", batch, r, ref)
		}
		if len(r.Executed) != len(ref.Executed) {
			t.Fatalf("batch %d: %d executed trees, materialized %d", batch, len(r.Executed), len(ref.Executed))
		}
		for i := range r.Executed {
			if r.Executed[i].String() != ref.Executed[i].String() {
				t.Errorf("batch %d: executed tree %d is %s, materialized %s",
					batch, i, r.Executed[i], ref.Executed[i])
			}
		}
	}
}

// TestRunStreamingParallelIdentical crosses the two execution knobs: small
// batches and fanned-out workers together must still reproduce the serial
// materialized run exactly.
func TestRunStreamingParallelIdentical(t *testing.T) {
	run := func(batch, par int) *Result {
		cat, q := bigFixture()
		eng := engine.New(cat)
		res, err := Run(q, eng, &engine.Budget{}, Config{
			Seed: 13, Iterations: 200, BatchSize: batch, Parallelism: par,
		})
		if err != nil {
			t.Fatalf("batch %d par %d: %v", batch, par, err)
		}
		return res
	}
	ref := run(-1, 1)
	for _, batch := range []int{7, 4096} {
		for _, par := range []int{0, 4} {
			r := run(batch, par)
			if r.Value != ref.Value || r.Rows != ref.Rows || r.Produced != ref.Produced {
				t.Errorf("batch %d par %d: value/rows/produced %v/%d/%v, serial materialized %v/%d/%v",
					batch, par, r.Value, r.Rows, r.Produced, ref.Value, ref.Rows, ref.Produced)
			}
		}
	}
}
