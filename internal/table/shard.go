package table

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Shard lays the catalog out as s hash shards over every table's first
// column — every benchmark generator emits the primary key first, so
// first-column sharding co-partitions the natural PK⋈FK join shapes. The
// layout is a shard count and nothing more: no row moves and nothing is
// precomputed, so the engine runs the same operators at every count; the
// planner prices the exchange the layout implies (ShardKey) and the plan cache
// keys on it (LayoutFingerprint). s <= 1 clears the layout.
func (c *Catalog) Shard(s int) {
	c.shardCount = max(s, 1)
}

// ShardCount reports the catalog's shard layout width; 1 means unsharded.
func (c *Catalog) ShardCount() int { return max(c.shardCount, 1) }

// ShardKey reports the bare name of the column a stored table is partitioned
// on (its first), or false when the catalog is unsharded, the table unknown
// or without columns.
func (c *Catalog) ShardKey(name string) (string, bool) {
	r, ok := c.tables[name]
	if !ok || c.ShardCount() == 1 || len(r.Schema.Cols) == 0 {
		return "", false
	}
	return r.Schema.Cols[0].Name, true
}

// LayoutFingerprint digests the shard layout (count plus every table's
// shard column, sorted) into a short stable hex string. The plan cache
// appends it to the canonical query shape so plans built against one layout
// never replay against another. Unsharded catalogs return "" so S=1 cache
// keys stay byte-identical to pre-sharding builds.
func (c *Catalog) LayoutFingerprint() string {
	if c.ShardCount() == 1 {
		return ""
	}
	keys := make([]string, 0, len(c.tables))
	for name, r := range c.tables {
		col := ""
		if len(r.Schema.Cols) > 0 {
			col = r.Schema.Cols[0].Qualified()
		}
		keys = append(keys, name+":"+col)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	fmt.Fprintf(h, "s=%d", c.shardCount)
	for _, k := range keys {
		fmt.Fprintf(h, ";%s", k)
	}
	return fmt.Sprintf("%x", h.Sum64())
}
