package table

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Sharded is the partitioned view of one stored table: the rows of the base
// relation split into shards by the stable FNV-1a hash of the shard column
// (always the table's first column — every benchmark generator emits the
// primary key first, so first-column sharding co-partitions the natural
// PK⋈FK join shapes). The layout is a shard-major permutation of row
// indices rather than copied row slices, deliberately pointer-free: a
// resident [][]Row layout would duplicate every row header into
// pointer-dense arrays the garbage collector re-scans on every cycle,
// taxing even queries that never touch the layout. Within a shard, indices
// stay in ascending (original) order.
type Sharded struct {
	Col string // qualified shard column, e.g. "lineitem.l_orderkey"
	// Perm is the shard-major permutation of the base relation's row
	// indices; shard h owns Perm[Bounds[h-1]:Bounds[h]] (from 0 for h=0),
	// and every index i in that range satisfies rows[i][0].Hash()%S == h.
	// int32 bounds tables at ~2.1e9 rows, far above any benchmark scale.
	Perm   []int32
	Bounds []int
	// RowHash caches the full (pre-modulo) shard-column hash of every base
	// row, in base row order — a free by-product of the partitioning pass.
	// Co-partitioned hash builds key on exactly this column, so they reuse
	// the cached hash instead of re-reading the row and re-running FNV;
	// like Perm it is pointer-free and invisible to the garbage collector.
	RowHash []uint64
}

// NumShards reports the layout width.
func (sh *Sharded) NumShards() int { return len(sh.Bounds) }

// Shard returns the row indices (into the base relation) of shard h, in
// ascending order.
func (sh *Sharded) Shard(h int) []int32 {
	lo := 0
	if h > 0 {
		lo = sh.Bounds[h-1]
	}
	return sh.Perm[lo:sh.Bounds[h]]
}

// Shard partitions every table in the catalog into s hash shards on its
// first column. s <= 1 clears the layout (the catalog answers ShardCount 1
// and the engine takes the exact unsharded code paths). Re-sharding is
// idempotent per s: partitioning is a pure function of the stored rows.
func (c *Catalog) Shard(s int) {
	if s <= 1 {
		c.shards, c.shardCount = nil, 0
		return
	}
	c.shardCount = s
	c.shards = make(map[string]*Sharded, len(c.tables))
	for name, r := range c.tables {
		c.shards[name] = shardRelation(r, s)
	}
}

func shardRelation(r *Relation, s int) *Sharded {
	sh := &Sharded{Bounds: make([]int, s)}
	if len(r.Schema.Cols) > 0 {
		sh.Col = r.Schema.Cols[0].Qualified()
	}
	// Stable counting sort by shard hash: one hashing pass recording each
	// row's bucket, a prefix sum, then a placement pass — indices within a
	// shard come out in ascending original order.
	hs := make([]int32, len(r.Rows))
	counts := make([]int, s)
	sh.RowHash = make([]uint64, len(r.Rows))
	for i, row := range r.Rows {
		full := row[0].Hash()
		sh.RowHash[i] = full
		h := int32(full % uint64(s))
		hs[i] = h
		counts[h]++
	}
	next := make([]int, s)
	acc := 0
	for h := 0; h < s; h++ {
		next[h] = acc
		acc += counts[h]
		sh.Bounds[h] = acc
	}
	sh.Perm = make([]int32, len(r.Rows))
	for i, h := range hs {
		sh.Perm[next[h]] = int32(i)
		next[h]++
	}
	return sh
}

// ShardCount reports the catalog's shard layout width; 1 means unsharded.
func (c *Catalog) ShardCount() int {
	if c.shardCount <= 1 {
		return 1
	}
	return c.shardCount
}

// ShardKey reports the bare name of the column a stored table is partitioned
// on (its first), or false when the catalog is unsharded, the table unknown
// or without columns.
func (c *Catalog) ShardKey(name string) (string, bool) {
	if _, ok := c.shards[name]; !ok {
		return "", false
	}
	cols := c.tables[name].Schema.Cols
	if len(cols) == 0 {
		return "", false
	}
	return cols[0].Name, true
}

// ShardsOf fetches the partitioned view of a stored table, or false when
// the catalog is unsharded or the table unknown.
func (c *Catalog) ShardsOf(name string) (*Sharded, bool) {
	sh, ok := c.shards[name]
	return sh, ok
}

// LayoutFingerprint digests the shard layout (count plus every table's
// shard column, sorted) into a short stable hex string. The plan cache
// appends it to the canonical query shape so plans built against one layout
// never replay against another. Unsharded catalogs return "" so S=1 cache
// keys stay byte-identical to pre-sharding builds.
func (c *Catalog) LayoutFingerprint() string {
	if c.ShardCount() <= 1 {
		return ""
	}
	keys := make([]string, 0, len(c.shards))
	for name, sh := range c.shards {
		keys = append(keys, name+":"+sh.Col)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	fmt.Fprintf(h, "s=%d", c.shardCount)
	for _, k := range keys {
		fmt.Fprintf(h, ";%s", k)
	}
	return fmt.Sprintf("%x", h.Sum64())
}
