package store

// Sharded is the contention-splitting Store: N Memory shards, each with its
// own mutex, generation counter, and policy counters, routed by
// ShardIndex — an FNV-1a hash of (bench, input) that deliberately excludes
// Machine. The exclusion is the consistency story for translation: every
// machine-axis sibling of a (bench, input) pair is co-resident on one
// shard, so LookupTranslated/PeekTranslated are single-shard operations
// under that shard's lock — a translated lookup can never observe a torn
// cross-shard state because it never reads more than one shard.
//
// Per-key operations (Lookup, Commit, Invalidate, Refund, Peek) touch only
// the key's shard. Whole-store operations that must be consistent
// (Counters, ShardCounters, Export, Len) lock every shard in index order,
// read, then release — a single atomic snapshot, no torn reads between
// shard counter loads. Generation guards remain sound with per-shard gen
// counters because gens are only ever compared for the same key, and a key
// always maps to the same shard.
type Sharded struct {
	shards []*Memory
}

// NewSharded builds an empty store with n shards (n is clamped to >= 2;
// use New to pick Memory for smaller counts). Zero-value config fields get
// defaults.
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

// Peek routes to the key's shard; semantics are Memory's.
func (s *Sharded) Peek(k Key) (Entry, bool) {
	return s.shard(k).Peek(k)
}

// PeekTranslated routes to the key's shard, like LookupTranslated.
func (s *Sharded) PeekTranslated(k Key) (Entry, Key, bool) {
	return s.shard(k).PeekTranslated(k)
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

// Import distributes recovered entries to their shards by the routing
// hash. Entries snapshotted under a different shard count re-hash into
// this layout transparently — the caller never needs to know how the
// snapshot was laid out.
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

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// ShardOf reports the shard a key routes to.
func (s *Sharded) ShardOf(k Key) int { return ShardIndex(k, len(s.shards)) }

// ExportShard snapshots one shard's entries, sorted by key. Unlike Export
// it holds only that shard's lock — the per-shard snapshot files are
// reconciled by the manifest's journal watermark, not by a global freeze.
func (s *Sharded) ExportShard(i int) []KeyedEntry {
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i].Export()
}

// ShardCounters returns the per-shard counter breakdown as one consistent
// snapshot (same all-shard critical section as Counters).
func (s *Sharded) ShardCounters() []Counters {
	s.lockAll()
	out := make([]Counters, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.counters
	}
	s.unlockAll()
	return out
}
