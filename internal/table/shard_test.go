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

func TestShardClearAndUnsharded(t *testing.T) {
	c := shardFixture()
	if c.ShardCount() != 1 {
		t.Errorf("fresh catalog ShardCount = %d, want 1", c.ShardCount())
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
	if _, ok := c.ShardKey("r"); ok {
		t.Error("cleared layout must not expose a shard key")
	}
}

// TestShardPutKeepsLayoutFresh: a table put under an active layout is in it
// at once, with its first column as shard key, and the fingerprint is the
// one the layout has always had — the pinned digests were computed when the
// layout still partitioned the rows.
func TestShardPutKeepsLayoutFresh(t *testing.T) {
	c := shardFixture()
	c.Shard(4)
	if key, ok := c.ShardKey("r"); !ok || key != "k" {
		t.Errorf("ShardKey(r) = %q,%v, want k", key, ok)
	}
	b := NewBuilder("t2", NewSchema(intCol("t2", "id")))
	b.Add(value.Int(7))
	c.Put(b.Build())
	c.Put(NewBuilder("empty", NewSchema()).Build())
	if key, ok := c.ShardKey("t2"); !ok || key != "id" {
		t.Errorf("table added under an active layout: ShardKey(t2) = %q,%v, want id", key, ok)
	}
	if _, ok := c.ShardKey("empty"); ok {
		t.Error("a table without columns must not expose a shard key")
	}
	if fp := c.LayoutFingerprint(); fp != "b0915ba65ac060a1" {
		t.Errorf("S=4 fingerprint with t2 and empty = %q, want b0915ba65ac060a1", fp)
	}
	d := shardFixture()
	d.Shard(16)
	if fp := d.LayoutFingerprint(); fp != "c6c7e8d3614ca6c0" {
		t.Errorf("S=16 fingerprint = %q, want c6c7e8d3614ca6c0", fp)
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
