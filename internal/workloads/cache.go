package workloads

import (
	"sync"
	"sync/atomic"
)

// BuildCache memoises Build results per (bench, input, repeats). Workload
// construction is the expensive part of session setup — CRONO builds
// generate and lay out a whole CSR graph — and the result is immutable
// once built (binaries are copied into each process at Launch, and every
// Setup closure maps kernel-written arrays freshly per address space), so
// the same *Workload can safely back any number of concurrent sessions.
//
// The cache is singleflight per key: concurrent callers for the same key
// block on one construction and all receive the same pointer. Errors are
// cached too (an unknown input stays unknown).
type BuildCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	builds atomic.Int64 // constructions performed (one per distinct key)
	hits   atomic.Int64 // calls served by an already-existing entry
}

type cacheKey struct {
	bench   string
	input   string
	repeats int
}

type cacheEntry struct {
	once sync.Once
	w    *Workload
	err  error
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{entries: make(map[cacheKey]*cacheEntry)}
}

// Build returns the cached workload for (bench, input, repeats), building
// it on first use. Concurrent callers share one construction.
func (c *BuildCache) Build(bench, input string, repeats int) (*Workload, error) {
	key := cacheKey{bench, input, repeats}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	e.once.Do(func() {
		c.builds.Add(1)
		e.w, e.err = Build(bench, input, repeats)
	})
	return e.w, e.err
}

// Builds reports how many workload constructions the cache has performed
// (at most one per distinct key).
func (c *BuildCache) Builds() int64 { return c.builds.Load() }

// Hits reports how many Build calls were served by an existing entry.
func (c *BuildCache) Hits() int64 { return c.hits.Load() }

var shared = NewBuildCache()

// SharedCache returns the process-wide build cache, used by default by the
// fleet so independently constructed fleets still share graph builds.
func SharedCache() *BuildCache { return shared }
