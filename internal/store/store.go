// Package store is the fleet's profile store: the stale-profile-reuse
// layer shared by every session. The first session on a (benchmark, input,
// machine) combination pays for full PEBS profiling and a cold distance
// search, then commits what it learned; later sessions on a matching
// combination are warm-started from the cached candidate sites and tuned
// distance, shortening both profiling and search. Entries age out after a
// bounded number of reuses (staleness) and are invalidated when a reused
// distance regresses the miss-site retirement rate, so a drifted workload
// falls back to fresh profiling instead of being pinned to a bad distance
// forever.
//
// The package defines the Store interface and Memory (one mutex, one map),
// the only store the product constructs; store/remote is the same contract
// over a store daemon. Sharded (sharded.go) lost to Memory on every
// measurement (DESIGN.md §7) and survives only for the benchmark ladder.
package store

// Key identifies the workload context a profile was collected in. Profiles
// are machine-specific: the paper's central result is that a distance tuned
// for one microarchitecture transplants badly to another.
type Key struct {
	Bench   string `json:"bench"`
	Input   string `json:"input"`
	Machine string `json:"machine"`
}

// Entry is one cached profile: the hot function, its candidate prefetch
// sites, and the distance the search settled on, plus the rates that let a
// later session judge whether the reuse still pays.
type Entry struct {
	// Func is the hot function the sites live in.
	Func string `json:"func"`
	// Candidates are the PEBS candidate load PCs (f0 addresses).
	Candidates []int `json:"candidates"`
	// Distance is the tuned prefetch distance.
	Distance int `json:"distance"`
	// BaselineRate and TunedRate are the miss-site retirement rates
	// observed before and after tuning in the committing session.
	BaselineRate float64 `json:"baseline_rate"`
	TunedRate    float64 `json:"tuned_rate"`
	// Session is the ID of the session that committed the entry.
	Session int `json:"session"`
}

// KeyedEntry pairs a key with its entry: the unit a WAL snapshot persists
// and crash recovery restores.
type KeyedEntry struct {
	Key   Key   `json:"key"`
	Entry Entry `json:"entry"`
}

// Config tunes the reuse policy.
type Config struct {
	// MaxReuse is how many sessions may warm-start from one committed
	// entry before it is considered stale and evicted, forcing the next
	// session to re-profile from scratch (default 16).
	MaxReuse int
}

// Counters are the store's cumulative policy counters.
type Counters struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Stale         uint64 `json:"stale"`
	Invalidations uint64 `json:"invalidations"`
	Commits       uint64 `json:"commits"`
	// Translations counts sibling entries served across machine types by
	// LookupTranslated; they are deliberately not Hits — a translated seed
	// is a hypothesis, not a cache hit on this machine's profile.
	Translations uint64 `json:"translations,omitempty"`
	// Refunds counts reuse-budget charges returned by Refund after a
	// seeded session failed before its search could run.
	Refunds uint64 `json:"refunds,omitempty"`
}

// Store is a concurrency-safe profile cache shared by every session of a
// fleet (and shareable across fleets on the same machine type).
//
// Contract, regardless of implementation:
//
//   - Lookup consumes one reuse-budget charge and counts a Hit; an entry
//     that has served Config.MaxReuse warm starts is stale — evicted,
//     counted (Stale and Misses), and reported as a miss.
//   - LookupTranslated serves a machine-axis sibling of the same
//     (bench, input) in deterministic machine-name order, consuming the
//     sibling's budget and counting Translations, never Hits.
//   - Commit/Invalidate/Refund are generation-guarded: the gen returned by
//     Lookup/Commit must match or the call is a no-op, so a racing Commit
//     from a concurrent session is never clobbered. Gens are only ever
//     compared for the same key.
//   - Freeze makes the store read-only (lookups serve without consuming
//     budget; Commit/Invalidate/Refund are no-ops); Thaw reverses it.
//   - Export returns every live entry in one consistent snapshot, sorted
//     by (Bench, Input, Machine); Import installs recovered entries
//     wholesale with fresh generations and full budgets, not touching the
//     policy counters.
//   - Counters returns one consistent snapshot of the policy counters.
type Store interface {
	Lookup(k Key) (Entry, uint64, bool)
	LookupTranslated(k Key) (Entry, Key, uint64, bool)
	Commit(k Key, e Entry) uint64
	Refund(k Key, gen uint64) bool
	Invalidate(k Key, gen uint64) bool
	Freeze()
	Thaw()
	Export() []KeyedEntry
	Import(entries []KeyedEntry)
	Len() int
	Counters() Counters
}
