package fleet

import (
	"fmt"
	"os"
	"path/filepath"
)

// initPersist opens the WAL's first epoch when StateDir is set, from
// whatever the journal and the fleet hold at that moment (startEpoch),
// and hangs the persister off the journal. An unusable state dir degrades
// the fleet instead of failing it — and so does a state dir still holding
// an interrupted run, or one readState cannot read, unless the caller
// explicitly opted into discarding it (Config.Overwrite) or is Recover,
// which consumes that state. Either way the old files are untouched.
func (f *Fleet) initPersist() {
	dir := f.cfg.StateDir
	if dir == "" {
		return
	}
	var err error
	if !f.cfg.Overwrite {
		var n int
		if n, err = PendingSessions(dir); err == nil && n > 0 {
			err = fmt.Errorf("state dir holds an interrupted run (%d unfinished sessions); Recover it (-resume) or set Overwrite (-fresh) to discard it", n)
		}
	}
	var p *persister
	if err == nil {
		p, err = openPersister(dir, f.cfg)
	}
	if err == nil {
		err = p.startEpoch(f.journal, f.capture)
	}
	if err != nil {
		f.persist = degradedPersister(dir, err)
		return
	}
	// Only an Overwrite start gets here with sharded-layout files in the
	// dir (readState refuses them): the caller chose to discard that state,
	// so drop the files or the next start is refused again.
	for _, name := range shardedLayoutFiles(dir) {
		os.Remove(filepath.Join(dir, name))
	}
	f.persist = p
	f.journal.SetSink(p.appendEvent)
	f.journal.setCommit(p.commit)
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

// rearmPersist runs one claimed re-arm attempt under snapMu, like a
// periodic snapshot. Success is journaled from the far side — the
// "persist-rearmed" record is the first event guaranteed to land in the
// re-seeded WAL.
func (f *Fleet) rearmPersist(attempt int) {
	f.journal.add(Event{Session: -1, Type: "persist-rearm", Attempt: attempt})
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	if f.persist.rearm(f.journal, f.capture) != nil {
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
	f.persist.writeSnapshot(w, f.capture())
}

// capture takes the state a snapshot holds: the scheduler and every
// session's watchdog posture under the fleet lock, then the store.
func (f *Fleet) capture() liveState {
	f.mu.Lock()
	st := liveState{sched: f.sched.Export(), drift: f.captureDriftLocked()}
	f.mu.Unlock()
	// A remote store is the daemon's to persist: snapshotting its contents
	// into this fleet's WAL would re-import another process's entries (and
	// stale generations) on recovery, so the WAL records an empty store.
	if f.store != nil && !f.cfg.DisableStore && f.cfg.StoreAddr == "" {
		st.entries = f.store.Export()
	}
	return st
}
