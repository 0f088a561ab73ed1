package table

import (
	"testing"

	"monsoon/internal/value"
)

func shardFixture() *Catalog {
	c := NewCatalog()
	s := NewSchema(intCol("r", "k"), intCol("r", "v"))
	b := NewBuilder("r", s)
	for i := 0; i < 100; i++ {
		b.Add(value.Int(int64(i)), value.Int(int64(i*10)))
	}
	c.Put(b.Build())
	return c
}

func TestShardPartitionsByFirstColumnHash(t *testing.T) {
	for _, s := range []int{2, 4, 16} {
		c := shardFixture()
		c.Shard(s)
		if c.ShardCount() != s {
			t.Fatalf("ShardCount = %d, want %d", c.ShardCount(), s)
		}
		sh, ok := c.ShardsOf("r")
		if !ok || sh.NumShards() != s {
			t.Fatalf("ShardsOf(r) = %v,%v at S=%d", sh, ok, s)
		}
		if sh.Col != "r.k" {
			t.Errorf("shard column = %q, want r.k", sh.Col)
		}
		base := c.MustGet("r")
		total := 0
		for h := 0; h < sh.NumShards(); h++ {
			idx := sh.Shard(h)
			total += len(idx)
			for _, i := range idx {
				if got := base.Rows[i][0].Hash() % uint64(s); got != uint64(h) {
					t.Fatalf("row with hash bucket %d landed in shard %d", got, h)
				}
			}
			// Indices keep their original (ascending) order within a shard.
			for i := 1; i < len(idx); i++ {
				if idx[i] <= idx[i-1] {
					t.Fatal("shard perturbed original row order")
				}
			}
		}
		if total != 100 {
			t.Errorf("shards hold %d rows, want 100", total)
		}
		if key, ok := c.ShardKey("r"); !ok || key != "k" {
			t.Errorf("ShardKey(r) = %q,%v", key, ok)
		}
	}
}

func TestShardClearAndUnsharded(t *testing.T) {
	c := shardFixture()
	if c.ShardCount() != 1 {
		t.Errorf("fresh catalog ShardCount = %d, want 1", c.ShardCount())
	}
	if _, ok := c.ShardsOf("r"); ok {
		t.Error("unsharded catalog must not expose shards")
	}
	if _, ok := c.ShardKey("r"); ok {
		t.Error("unsharded catalog must not expose a shard key")
	}
	if fp := c.LayoutFingerprint(); fp != "" {
		t.Errorf("unsharded fingerprint = %q, want empty", fp)
	}
	c.Shard(4)
	c.Shard(1) // clears
	if c.ShardCount() != 1 {
		t.Errorf("ShardCount after clear = %d, want 1", c.ShardCount())
	}
	if _, ok := c.ShardsOf("r"); ok {
		t.Error("cleared layout must not expose shards")
	}
}

func TestShardPutKeepsLayoutFresh(t *testing.T) {
	c := shardFixture()
	c.Shard(4)
	b := NewBuilder("t2", NewSchema(intCol("t2", "id")))
	b.Add(value.Int(7))
	c.Put(b.Build())
	sh, ok := c.ShardsOf("t2")
	if !ok || sh.NumShards() != 4 {
		t.Fatalf("table added under an active layout must be sharded, got %v,%v", sh, ok)
	}
	if len(sh.Perm) != 1 {
		t.Errorf("t2 shards hold %d rows, want 1", len(sh.Perm))
	}
}

func TestLayoutFingerprint(t *testing.T) {
	a := shardFixture()
	a.Shard(4)
	b := shardFixture()
	b.Shard(4)
	if a.LayoutFingerprint() == "" || a.LayoutFingerprint() != b.LayoutFingerprint() {
		t.Error("identical layouts must share a non-empty fingerprint")
	}
	b.Shard(16)
	if a.LayoutFingerprint() == b.LayoutFingerprint() {
		t.Error("different shard counts must not collide")
	}
	// A layout over a different table set must differ too.
	c := shardFixture()
	bld := NewBuilder("extra", NewSchema(intCol("extra", "id")))
	c.Put(bld.Build())
	c.Shard(4)
	if a.LayoutFingerprint() == c.LayoutFingerprint() {
		t.Error("different table sets must not collide")
	}
}
