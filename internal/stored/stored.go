// Package stored is the out-of-process profile store: an HTTP/JSON daemon
// wrapping a local store.Memory so multiple fleet
// daemons on one machine type can share profiles across processes. It is
// the backend the store.Store interface was extracted for — the remote
// client (internal/store/remote) implements the same interface over these
// endpoints, so a fleet cannot tell a shared daemon from a private map.
//
// The gen-guard contract is the design center: generations live here, in
// the wrapped store. Lookup and Commit return the daemon's gen, and
// Commit/Refund/Invalidate forward the caller's, so two fleet processes
// racing a commit on the same (bench, input, machine) key resolve exactly
// like two in-process workers — the loser's Invalidate/Refund no-ops
// against the winner's fresher generation.
//
// Endpoint map (one endpoint per interface method; POST bodies and all
// responses are JSON):
//
//	POST /v1/store/lookup             {key}        -> {entry, gen, found}
//	POST /v1/store/lookup-translated  {key}        -> {entry, from, gen, found}
//	POST /v1/store/commit             {key, entry} -> {gen}
//	POST /v1/store/refund             {key, gen}   -> {ok}
//	POST /v1/store/invalidate         {key, gen}   -> {ok}
//	POST /v1/store/freeze                          -> {}
//	POST /v1/store/thaw                            -> {}
//	POST /v1/store/import             {entries}    -> {}
//	GET  /v1/store/export                          -> {entries}
//	GET  /v1/store/stats                           -> {len, counters}
//	GET  /v1/healthz                               -> {status}
//
// With Config.StateDir set the daemon is crash-safe: every accepted
// mutation (a commit, a guard-passing invalidate, an import) appends to an
// op journal in internal/wal's checksummed framing, and every
// SnapshotEvery mutations the journal rolls to a fresh epoch whose head is
// the whole store. Restart folds the ops after the head over it, so a
// kill -9 loses at most the unsynced WAL tail.
package stored

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rpg2/internal/daemon"
	"rpg2/internal/store"
	"rpg2/internal/wal"
)

// Config tunes a store daemon.
type Config struct {
	// Store is the wrapped store's reuse policy.
	Store store.Config
	// StateDir persists the op journal here (empty = in-memory only). A
	// state dir with prior state is recovered automatically — durability
	// is the daemon's whole point — unless Fresh discards it.
	StateDir string
	// Fresh discards any prior state in StateDir instead of recovering it.
	Fresh bool
	// Fsync is the WAL durability policy (default interval: fsync every 64
	// appends and on close).
	Fsync wal.SyncMode
	// SnapshotEvery is how many journaled mutations (store commits) run
	// between epoch rolls, each of which writes the whole store as the
	// fresh journal's head (0 or less: the default 256).
	SnapshotEvery int
	// RequestTimeout bounds each request's handler (0 or less: the
	// default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies, 413 past it (0 or less: the
	// default 1 MiB).
	MaxBodyBytes int64
}

// Server is the daemon: a wrapped store behind the endpoint map, with
// optional WAL persistence. Serve Handler (or HTTPServer) and stop with
// Drain.
type Server struct {
	cfg     Config
	store   store.Store
	mux     http.Handler
	persist *persister // nil when StateDir is unset

	// mu serializes mutating store ops with their journal writes, so the
	// journal's op order is the store's commit order — recovery folds ops
	// in sequence and must arrive at the same winner every racing pair
	// arrived at live. Read paths never take it, so a lookup may see a
	// commit whose fsync is still pending; the handler that made it
	// replies only after the fsync.
	mu sync.Mutex

	draining  atomic.Bool
	drainOnce sync.Once
}

// New builds a daemon over a fresh store — or, when cfg.StateDir holds
// prior state, over the recovered contents.
func New(cfg Config) (*Server, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	s := &Server{cfg: cfg, store: store.NewMemory(cfg.Store)}
	if cfg.StateDir != "" {
		p, recovered, err := openPersister(cfg)
		if err != nil {
			return nil, err
		}
		s.persist = p
		if len(recovered) > 0 {
			s.store.Import(recovered)
		}
		// Seal the epoch start: the fresh journal's head carries the
		// recovered state.
		if err := p.snapshot(s.store.Export()); err != nil {
			p.close()
			return nil, err
		}
	}
	s.mux = s.routes()
	return s, nil
}

// Store exposes the wrapped store (tests and the CLI's final stats).
func (s *Server) Store() store.Store { return s.store }

// Recovered reports how many entries the state dir restored (0 for a
// fresh or in-memory daemon).
func (s *Server) Recovered() int {
	if s.persist == nil {
		return 0
	}
	return s.persist.recoveredEntries
}

// Handler returns the daemon's HTTP handler inside the daemon kit's
// hardening stack (panic recovery outermost, then a per-request deadline).
func (s *Server) Handler() http.Handler {
	return daemon.Harden(s.mux, daemon.Hardening{Timeout: s.cfg.RequestTimeout})
}

// HTTPServer wraps Handler in the kit's http.Server (real timeouts), so a
// stalled peer cannot pin a connection forever.
func (s *Server) HTTPServer() *http.Server { return daemon.HTTPServer(s.Handler()) }

// DrainStats reports what Drain flushed.
type DrainStats struct {
	// Entries is the live entry count at drain.
	Entries int
	// Snapshotted says whether a final epoch roll landed.
	Snapshotted bool
}

// Drain seals the daemon: subsequent requests (except healthz) get 503, a
// final epoch roll lands if persistence is active, and the WAL closes.
// Safe to call more than once.
func (s *Server) Drain() DrainStats {
	var st DrainStats
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		defer s.mu.Unlock()
		st.Entries = s.store.Len()
		if s.persist != nil {
			st.Snapshotted = s.persist.snapshot(s.store.Export()) == nil
			s.persist.close()
		}
	})
	return st
}

// Degraded reports whether persistence failed mid-run (the daemon keeps
// serving from memory).
func (s *Server) Degraded() (string, bool) {
	if s.persist == nil {
		return "", false
	}
	return s.persist.degradedErr()
}

// --- routing ---

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", daemon.Health(&s.draining))
	mux.Handle("POST /v1/store/lookup", op(s, s.lookup))
	mux.Handle("POST /v1/store/lookup-translated", op(s, s.lookupTranslated))
	mux.Handle("POST /v1/store/commit", op(s, s.commit))
	mux.Handle("POST /v1/store/refund", op(s, s.refund))
	mux.Handle("POST /v1/store/invalidate", op(s, s.invalidate))
	mux.Handle("POST /v1/store/import", op(s, s.importEntries))
	mux.Handle("POST /v1/store/freeze", s.answer(func() any { s.store.Freeze(); return OKResp{OK: true} }))
	mux.Handle("POST /v1/store/thaw", s.answer(func() any { s.store.Thaw(); return OKResp{OK: true} }))
	mux.Handle("GET /v1/store/export", s.answer(func() any { return EntriesMsg{Entries: s.store.Export()} }))
	mux.Handle("GET /v1/store/stats", s.answer(s.stats))
	return mux
}

// sealed gates a store endpoint on the drain seal.
func (s *Server) sealed(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			daemon.WriteErr(w, http.StatusServiceUnavailable, "store daemon is draining")
			return
		}
		h(w, r)
	})
}

// answer serves a bodiless operation: seal, run, JSON answer.
func (s *Server) answer(fn func() any) http.Handler {
	return s.sealed(func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, fn())
	})
}

// op serves one store operation with a request body: seal, decode Req
// (bounded by MaxBodyBytes), run, JSON answer.
func op[Req any](s *Server, fn func(Req) any) http.Handler {
	return s.sealed(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if daemon.DecodeJSON(w, r, s.cfg.MaxBodyBytes, false, "request", &req) {
			daemon.WriteJSON(w, http.StatusOK, fn(req))
		}
	})
}

func (s *Server) lookup(req KeyReq) any {
	e, gen, ok := s.store.Lookup(req.Key)
	return LookupResp{Entry: e, Gen: gen, Found: ok}
}

func (s *Server) lookupTranslated(req KeyReq) any {
	e, from, gen, ok := s.store.LookupTranslated(req.Key)
	return LookupResp{Entry: e, From: from, Gen: gen, Found: ok}
}

func (s *Server) commit(req CommitReq) any {
	s.mu.Lock()
	gen := s.store.Commit(req.Key, req.Entry)
	var log *wal.Log
	if gen != 0 && s.persist != nil {
		log = s.persist.appendOp(opRecord{Op: "commit", Key: req.Key, Entry: &req.Entry}, s.store)
	}
	s.mu.Unlock()
	s.commitLog(log)
	return GenResp{Gen: gen}
}

// commitLog makes the ops appendOp wrote to log durable before the handler
// replies, outside s.mu so concurrent requests share one fsync. A log a
// roll replaced meanwhile reports itself closed: the roll's own sync
// covered its ops.
func (s *Server) commitLog(log *wal.Log) {
	if log == nil {
		return
	}
	if err := log.Commit(); err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.persist.journal == log {
			s.persist.degrade(fmt.Errorf("stored: journal commit: %w", err))
		}
	}
}

// refund moves only the in-memory reuse budget — recovery resets budgets
// anyway (Import grants fresh ones), so nothing is journaled.
func (s *Server) refund(req GenReq) any {
	return OKResp{OK: s.store.Refund(req.Key, req.Gen)}
}

func (s *Server) invalidate(req GenReq) any {
	s.mu.Lock()
	ok := s.store.Invalidate(req.Key, req.Gen)
	var log *wal.Log
	if ok && s.persist != nil {
		// Journal only guard-passing invalidations: the op deleted a live
		// entry, so replay deletes it too (replay is unguarded — the guard
		// already ran, live, against the gen it was issued for).
		log = s.persist.appendOp(opRecord{Op: "invalidate", Key: req.Key}, s.store)
	}
	s.mu.Unlock()
	s.commitLog(log)
	return OKResp{OK: ok}
}

// importEntries journals every entry, then commits once: one fsync for
// the whole import.
func (s *Server) importEntries(req EntriesMsg) any {
	s.mu.Lock()
	s.store.Import(req.Entries)
	var log *wal.Log
	if s.persist != nil {
		for i := range req.Entries {
			if l := s.persist.appendOp(opRecord{Op: "commit", Key: req.Entries[i].Key, Entry: &req.Entries[i].Entry}, s.store); l != nil {
				log = l
			}
		}
	}
	s.mu.Unlock()
	s.commitLog(log)
	return OKResp{OK: true}
}

func (s *Server) stats() any {
	resp := StatsResp{Len: s.store.Len(), Counters: s.store.Counters()}
	if s.persist != nil {
		resp.Persistence = "active"
		if msg, bad := s.Degraded(); bad {
			resp.Persistence, resp.PersistenceError = "degraded", msg
		}
	}
	return resp
}
