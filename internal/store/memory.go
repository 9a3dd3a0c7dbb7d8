package store

import (
	"sort"
	"sync"
)

type storeEntry struct {
	Entry
	gen  uint64 // generation, bumped by every Commit
	uses int    // warm starts served since the last Commit
}

// Memory is the single-mutex, single-map Store: every lookup, commit, and
// counter read serializes through one lock. It doubles as the shard unit
// Sharded is built from.
type Memory struct {
	cfg Config

	mu       sync.Mutex
	entries  map[Key]*storeEntry
	gen      uint64
	frozen   bool
	counters Counters
}

// NewMemory builds an empty store; zero-value config fields
// get defaults.
func NewMemory(cfg Config) *Memory {
	if cfg.MaxReuse <= 0 {
		cfg.MaxReuse = 16
	}
	return &Memory{cfg: cfg, entries: make(map[Key]*storeEntry)}
}

// Lookup returns the cached profile for a key, counting a hit, or reports a
// miss. An entry that has served MaxReuse warm starts is stale: it is
// evicted, counted, and reported as a miss so the caller re-profiles. The
// returned generation must be passed to Invalidate so a racing Commit from
// a concurrent session is not clobbered.
func (s *Memory) Lookup(k Key) (Entry, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.counters.Misses++
		return Entry{}, 0, false
	}
	if s.frozen {
		s.counters.Hits++
		return e.Entry, e.gen, true
	}
	if e.uses >= s.cfg.MaxReuse {
		delete(s.entries, k)
		s.counters.Stale++
		s.counters.Misses++
		return Entry{}, 0, false
	}
	e.uses++
	s.counters.Hits++
	return e.Entry, e.gen, true
}

// LookupTranslated finds a sibling entry for the same (bench, input) on a
// *different* machine — the source a cross-machine translated warm start
// seeds from after Lookup missed. Siblings are scanned in machine-name
// order so the choice is deterministic regardless of commit interleaving;
// stale siblings are evicted exactly as Lookup would evict them. A serve
// consumes the sibling's reuse budget (a translated seed is still a reuse
// of that profile) and counts Translations, never Hits: the caller's
// Lookup already counted the miss for this machine's key, and the hit
// rate must keep meaning "sessions served by a same-machine profile".
func (s *Memory) LookupTranslated(k Key) (Entry, Key, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sibs []Key
	for sk := range s.entries {
		if sk.Bench == k.Bench && sk.Input == k.Input && sk.Machine != k.Machine {
			sibs = append(sibs, sk)
		}
	}
	sort.Slice(sibs, func(i, j int) bool { return sibs[i].Machine < sibs[j].Machine })
	for _, sk := range sibs {
		e := s.entries[sk]
		if !s.frozen && e.uses >= s.cfg.MaxReuse {
			delete(s.entries, sk)
			s.counters.Stale++
			continue
		}
		if !s.frozen {
			e.uses++
		}
		s.counters.Translations++
		return e.Entry, sk, e.gen, true
	}
	return Entry{}, Key{}, 0, false
}

// Refund returns one reuse-budget charge to an entry whose warm start never
// ran: a seeded session that dies before its search (build or launch
// failure) consumed budget for nothing, and without the refund a string of
// transient failures could stale a perfectly good profile. The generation
// guard makes a refund against a since-refreshed entry a no-op, exactly
// like Invalidate. Reports whether a charge was returned.
func (s *Memory) Refund(k Key, gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.gen != gen || s.frozen || e.uses <= 0 {
		return false
	}
	e.uses--
	s.counters.Refunds++
	return true
}

// Commit installs (or refreshes) the profile for a key, resetting its reuse
// budget, and returns the new generation.
func (s *Memory) Commit(k Key, e Entry) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return 0
	}
	s.gen++
	s.counters.Commits++
	s.entries[k] = &storeEntry{Entry: e, gen: s.gen}
	return s.gen
}

// Invalidate drops the entry for a key if it is still the generation the
// caller warm-started from; a stale generation (another session already
// committed a fresher profile) is a no-op. Reports whether it dropped.
func (s *Memory) Invalidate(k Key, gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.gen != gen || s.frozen {
		return false
	}
	delete(s.entries, k)
	s.counters.Invalidations++
	return true
}

// Freeze makes the store read-only: Lookup keeps serving entries (without
// consuming reuse budget), Commit and Invalidate become no-ops. A frozen
// store's responses depend only on its contents, not on the order
// concurrent sessions touch it — the property the deterministic
// warm-started experiments harness relies on.
func (s *Memory) Freeze() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frozen = true
}

// Thaw reverses Freeze.
func (s *Memory) Thaw() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frozen = false
}

// Export returns every live entry sorted by key, for deterministic
// snapshots. Reuse budgets and generations are process-local and are not
// exported.
func (s *Memory) Export() []KeyedEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]KeyedEntry, 0, len(s.entries))
	for k, e := range s.entries {
		out = append(out, KeyedEntry{Key: k, Entry: e.Entry})
	}
	SortEntries(out)
	return out
}

// Import installs recovered entries wholesale, each with a fresh
// generation and a full reuse budget. It is the crash-recovery path, meant
// for a store no session is using yet; it does not touch the policy
// counters (recovered entries were already counted by the process that
// committed them).
func (s *Memory) Import(entries []KeyedEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ke := range entries {
		s.gen++
		s.entries[ke.Key] = &storeEntry{Entry: ke.Entry, gen: s.gen}
	}
}

// Len reports the number of live entries.
func (s *Memory) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Counters returns a snapshot of the policy counters.
func (s *Memory) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// SortEntries orders entries by (bench, input, machine) — the order every
// Export promises, and the order recovery imports in.
func SortEntries(out []KeyedEntry) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Input != b.Input {
			return a.Input < b.Input
		}
		return a.Machine < b.Machine
	})
}
