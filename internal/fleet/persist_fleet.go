package fleet

import "fmt"

// initPersist stages the WAL epoch when StateDir is set: the epoch's
// initial snapshot (carrying any recovered store and scheduler state)
// lands atomically on disk first, then a staged journal opens for
// appends; commitPersist publishes it over the previous epoch's journal.
// An unusable state dir degrades the fleet instead of failing it — and so
// does a state dir still holding an interrupted run, or one readState
// cannot read, unless the caller explicitly opted into discarding it
// (Config.Overwrite) or is Recover, which consumes that state. Either way
// the old files are untouched.
func (f *Fleet) initPersist() {
	if f.cfg.StateDir == "" {
		return
	}
	if !f.cfg.Overwrite {
		n, err := PendingSessions(f.cfg.StateDir)
		if err == nil && n > 0 {
			err = fmt.Errorf("state dir holds an interrupted run (%d unfinished sessions); Recover it (-resume) or set Overwrite (-fresh) to discard it", n)
		}
		if err != nil {
			f.persist = degradedPersister(f.cfg.StateDir, err)
			return
		}
	}
	p, err := openPersister(f.cfg.StateDir, f.cfg, f.sched.Export(), f.captureDrift(), f.captureStore())
	if err != nil {
		f.persist = degradedPersister(f.cfg.StateDir, err)
		return
	}
	f.persist = p
	f.journal.SetSink(p.appendEvent)
	f.journal.setCommit(p.commit)
}

// commitPersist publishes the staged journal over the previous epoch's.
// Recover calls it only after re-admitting the old journal's pending
// sessions, so their "queued" records are inside the file before it takes
// the journal's name.
func (f *Fleet) commitPersist() {
	if f.persist != nil {
		f.persist.commitJournal()
	}
}

// tendPersist is the persistence layer's between-sessions heartbeat,
// called by workers outside both the fleet and journal locks. A healthy
// persister gets its periodic snapshot; a degraded one gets its
// degradation journaled (once) and, when the event-counted backoff has
// run out, a re-arm attempt — claimed by exactly one worker.
func (f *Fleet) tendPersist() {
	if f.persist == nil {
		return
	}
	if msg, n, ok := f.persist.takeDegradeNotice(); ok {
		f.journal.add(Event{Session: -1, Type: "persist-degraded", Err: msg, Attempt: n})
	}
	if attempt, ok := f.persist.claimRearm(); ok {
		f.rearmPersist(attempt)
		return
	}
	if f.persist.claimSnapshot() {
		f.persistSnapshot()
	}
}

// rearmPersist runs one claimed re-arm attempt: journal it, capture live
// state under snapMu exactly like a periodic snapshot, and hand the
// persister its fresh epoch. Success is journaled from the far side — the
// "persist-rearmed" record is the first event guaranteed to land in the
// re-seeded WAL.
func (f *Fleet) rearmPersist(attempt int) {
	f.journal.add(Event{Session: -1, Type: "persist-rearm", Attempt: attempt})
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	f.mu.Lock()
	sched := f.sched.Export()
	dr := f.captureDriftLocked()
	f.mu.Unlock()
	if err := f.persist.rearm(f.journal, sched, dr, f.captureStore()); err != nil {
		return
	}
	f.journal.add(Event{Session: -1, Type: "persist-rearmed", Attempt: attempt})
}

// persistSnapshot captures and writes a snapshot, one at a time (snapMu):
// unserialized writers would share WriteAtomic's temp file and could
// rename a torn snapshot into place. The watermark is read BEFORE the
// store export: store mutations precede their journal events, so the
// export folds in every event up to the watermark and replaying anything
// newer on top of it is idempotent. The journal is committed up to the
// watermark before the snapshot is written: a snapshot must never vouch for
// records a power cut could still take.
func (f *Fleet) persistSnapshot() {
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	w := f.persist.watermark()
	f.persist.commit()
	f.mu.Lock()
	sched := f.sched.Export()
	dr := f.captureDriftLocked()
	f.mu.Unlock()
	f.persist.writeSnapshot(w, sched, dr, f.captureStore())
}

// captureStore exports the store's contents for a WAL snapshot.
func (f *Fleet) captureStore() []KeyedEntry {
	// A remote store is the daemon's to persist: snapshotting its contents
	// into this fleet's WAL would re-import another process's entries (and
	// stale generations) on recovery, so the WAL records an empty store.
	if f.store == nil || f.cfg.DisableStore || f.cfg.StoreAddr != "" {
		return nil
	}
	return f.store.Export()
}
