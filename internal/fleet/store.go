// The profile store lives in internal/store behind the store.Store
// interface; the fleet holds only the interface. These aliases keep the
// fleet's public surface (and every call site that grew up against
// fleet.Store) stable across the extraction.
package fleet

import "rpg2/internal/store"

// Key identifies the workload context a profile was collected in.
type Key = store.Key

// Entry is one cached profile.
type Entry = store.Entry

// KeyedEntry pairs a key with its entry: the unit a journal's head
// persists and crash recovery restores.
type KeyedEntry = store.KeyedEntry

// StoreConfig tunes the reuse policy.
type StoreConfig = store.Config

// StoreCounters are the store's cumulative policy counters.
type StoreCounters = store.Counters

// Store is the profile-store interface the fleet runs against; see
// internal/store for the contract.
type Store = store.Store

// NewStore builds an empty Memory store; zero-value config fields get
// defaults.
func NewStore(cfg StoreConfig) Store {
	return store.NewMemory(cfg)
}
