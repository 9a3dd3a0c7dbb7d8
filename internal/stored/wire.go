package stored

import "rpg2/internal/store"

// The endpoint contract's JSON bodies, defined once: the daemon's handlers
// encode and decode them and the remote client (internal/store/remote)
// imports them, so the two sides cannot drift.

// KeyReq asks about one key (lookup, lookup-translated).
type KeyReq struct {
	Key store.Key `json:"key"`
}

// CommitReq commits an entry under a key.
type CommitReq struct {
	Key   store.Key   `json:"key"`
	Entry store.Entry `json:"entry"`
}

// GenReq forwards the caller's generation for the guarded ops (refund,
// invalidate).
type GenReq struct {
	Key store.Key `json:"key"`
	Gen uint64    `json:"gen"`
}

// LookupResp answers both lookups; From is set by the translated one, Gen
// when an entry was found.
type LookupResp struct {
	Entry store.Entry `json:"entry"`
	From  store.Key   `json:"from,omitempty"`
	Gen   uint64      `json:"gen,omitempty"`
	Found bool        `json:"found"`
}

// GenResp is a commit's answer: the daemon-side generation.
type GenResp struct {
	Gen uint64 `json:"gen"`
}

// OKResp reports whether a guarded op passed its guard.
type OKResp struct {
	OK bool `json:"ok"`
}

// EntriesMsg carries whole entries: import's request, export's response.
type EntriesMsg struct {
	Entries []store.KeyedEntry `json:"entries"`
}

// StatsResp answers Len and Counters in one round trip.
type StatsResp struct {
	Len      int            `json:"len"`
	Counters store.Counters `json:"counters"`
	// Persistence is "active" or "degraded" when a state dir is configured,
	// empty for an in-memory daemon.
	Persistence      string `json:"persistence,omitempty"`
	PersistenceError string `json:"persistence_error,omitempty"`
}
