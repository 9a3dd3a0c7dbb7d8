package store

// Sharded is a sealed island: the product never constructs it (it measured
// 2.3-2.4x slower than Memory under the parallel warm-start mix it was built
// for, DESIGN.md §7) and its only non-test caller is the benchmark ladder's
// store.sharded_* rows; it goes when they do.
//
// It is the contention-splitting Store: N Memory shards, each with its
// own mutex, generation counter, and policy counters, routed by
// ShardIndex — an FNV-1a hash of (bench, input) that deliberately excludes
// Machine. The exclusion is the consistency story for translation: every
// machine-axis sibling of a (bench, input) pair is co-resident on one
// shard, so LookupTranslated is a single-shard operation
// under that shard's lock — a translated lookup can never observe a torn
// cross-shard state because it never reads more than one shard.
//
// Per-key operations (Lookup, Commit, Invalidate, Refund) touch only
// the key's shard. Whole-store operations that must be consistent
// (Counters, Export, Len) lock every shard in index order,
// read, then release — a single atomic snapshot, no torn reads between
// shard counter loads. Generation guards remain sound with per-shard gen
// counters because gens are only ever compared for the same key, and a key
// always maps to the same shard.
type Sharded struct {
	shards []*Memory
}

// NewSharded builds an empty store with n shards (n is clamped to >= 2).
// Zero-value config fields get defaults.
func NewSharded(cfg Config, n int) *Sharded {
	if n < 2 {
		n = 2
	}
	s := &Sharded{shards: make([]*Memory, n)}
	for i := range s.shards {
		s.shards[i] = NewMemory(cfg)
	}
	return s
}

func (s *Sharded) shard(k Key) *Memory {
	return s.shards[ShardIndex(k, len(s.shards))]
}

// ShardIndex routes a key to a shard by FNV-1a hash of (bench, input).
// Machine is deliberately excluded, so every machine-axis sibling of a
// (bench, input) pair shares a shard and a translated lookup never crosses
// one. shards <= 1 always routes to 0. The hash is inlined
// (equivalent to hash/fnv over bench, bench's length as 4 little-endian
// bytes, then input) so the hot routing path never allocates. The length
// frame, not a separator byte, marks the field boundary: a separator that
// can also appear inside the strings (NUL did) makes pairs like
// ("a\x00b", "c") and ("a", "b\x00c") alias, so routing would not be a
// pure function of the pair.
func ShardIndex(k Key, shards int) int {
	if shards <= 1 {
		return 0
	}
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(k.Bench); i++ {
		h = (h ^ uint32(k.Bench[i])) * prime32
	}
	n := uint32(len(k.Bench))
	h = (h ^ (n & 0xff)) * prime32
	h = (h ^ (n >> 8 & 0xff)) * prime32
	h = (h ^ (n >> 16 & 0xff)) * prime32
	h = (h ^ (n >> 24 & 0xff)) * prime32
	for i := 0; i < len(k.Input); i++ {
		h = (h ^ uint32(k.Input[i])) * prime32
	}
	return int(h % uint32(shards))
}

// lockAll acquires every shard lock in index order (the only order used
// anywhere, so whole-store snapshots cannot deadlock against each other);
// unlockAll releases in reverse.
func (s *Sharded) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// Lookup routes to the key's shard; semantics are Memory's.
func (s *Sharded) Lookup(k Key) (Entry, uint64, bool) {
	return s.shard(k).Lookup(k)
}

// LookupTranslated routes to the key's shard. Machine-axis siblings share
// the shard (the hash excludes Machine), so the whole sibling scan runs
// under one shard lock.
func (s *Sharded) LookupTranslated(k Key) (Entry, Key, uint64, bool) {
	return s.shard(k).LookupTranslated(k)
}

// Commit routes to the key's shard and returns that shard's new
// generation.
func (s *Sharded) Commit(k Key, e Entry) uint64 {
	return s.shard(k).Commit(k, e)
}

// Refund routes to the key's shard; the gen guard compares against the
// same shard's generation that Lookup/Commit returned.
func (s *Sharded) Refund(k Key, gen uint64) bool {
	return s.shard(k).Refund(k, gen)
}

// Invalidate routes to the key's shard, gen-guarded like Refund.
func (s *Sharded) Invalidate(k Key, gen uint64) bool {
	return s.shard(k).Invalidate(k, gen)
}

// Freeze freezes every shard under one all-shard critical section, so no
// concurrent lookup can observe a half-frozen store.
func (s *Sharded) Freeze() {
	s.lockAll()
	for _, sh := range s.shards {
		sh.frozen = true
	}
	s.unlockAll()
}

// Thaw reverses Freeze, atomically across shards.
func (s *Sharded) Thaw() {
	s.lockAll()
	for _, sh := range s.shards {
		sh.frozen = false
	}
	s.unlockAll()
}

// Export returns every live entry across all shards as one consistent
// snapshot (all shard locks held for the gather), sorted by key exactly
// like Memory.Export.
func (s *Sharded) Export() []KeyedEntry {
	s.lockAll()
	var out []KeyedEntry
	for _, sh := range s.shards {
		for k, e := range sh.entries {
			out = append(out, KeyedEntry{Key: k, Entry: e.Entry})
		}
	}
	s.unlockAll()
	SortEntries(out)
	return out
}

// Import distributes entries to their shards by the routing hash.
func (s *Sharded) Import(entries []KeyedEntry) {
	for _, ke := range entries {
		s.shard(ke.Key).Import([]KeyedEntry{ke})
	}
}

// Len reports live entries across all shards as one consistent count.
func (s *Sharded) Len() int {
	s.lockAll()
	n := 0
	for _, sh := range s.shards {
		n += len(sh.entries)
	}
	s.unlockAll()
	return n
}

// Counters aggregates the per-shard policy counters under one all-shard
// critical section: the sums come from a single instant, never torn
// between a shard that counted a commit and one that has not yet counted
// the matching lookup.
func (s *Sharded) Counters() Counters {
	s.lockAll()
	var tot Counters
	for _, sh := range s.shards {
		tot.Add(sh.counters)
	}
	s.unlockAll()
	return tot
}

// Add folds another counter snapshot into c.
func (c *Counters) Add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Stale += o.Stale
	c.Invalidations += o.Invalidations
	c.Commits += o.Commits
	c.Translations += o.Translations
	c.Refunds += o.Refunds
}
