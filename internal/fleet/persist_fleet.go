package fleet

import (
	"fmt"
	"os"
	"path/filepath"
)

// initPersist opens the WAL's first epoch when StateDir is set, from
// whatever the journal and the fleet hold at that moment (startEpoch),
// and hangs the persister off the journal. st is the state dir as Recover
// read it; New passes nil and reads it here. An unusable state dir
// degrades the fleet instead of failing it — and so does a state dir still
// holding an interrupted run, or one readState cannot read, unless the
// caller explicitly opted into discarding it (Config.Overwrite) or is
// Recover, which consumes that state. Either way the old files are
// untouched.
func (f *Fleet) initPersist(st *recoveredState) {
	dir := f.cfg.StateDir
	if dir == "" {
		return
	}
	var err error
	if st == nil {
		var read error
		st, read = readState(dir)
		switch {
		case f.cfg.Overwrite:
			// Discarded: only the epoch numbering carries over.
		case read != nil:
			err = read
		case len(st.pending) > 0:
			err = fmt.Errorf("state dir holds an interrupted run (%d unfinished sessions); Recover it (-resume) or set Overwrite (-fresh) to discard it", len(st.pending))
		}
	}
	var p *persister
	if err == nil {
		p, err = openPersister(dir, f.cfg)
	}
	if err == nil {
		if st != nil {
			p.epoch = st.prevEpoch
		}
		err = p.startEpoch(f.journal, f.capture)
	}
	if err != nil {
		f.persist = degradedPersister(dir, err)
		return
	}
	// Only an Overwrite start gets here with legacy-layout files in the dir
	// (readState refuses them): the caller chose to discard that state, so
	// drop the files or the next start is refused again.
	for _, name := range legacyLayoutFiles(dir) {
		os.Remove(filepath.Join(dir, name))
	}
	f.persist = p
	f.journal.SetSink(p.appendEvent)
	f.journal.setCommit(p.commit)
}

// tendPersist is the persistence layer's between-sessions heartbeat,
// called by workers outside both the fleet and journal locks. A degraded
// persister gets its degradation journaled (once); then whichever roll is
// due — a re-arm once the event-counted backoff has run out, or a periodic
// roll every SnapshotEvery store commits — runs in exactly one worker. A
// re-arm's success is journaled from the far side: the "persist-rearmed"
// record is the first event guaranteed to land in the re-seeded WAL.
func (f *Fleet) tendPersist() {
	if f.persist == nil {
		return
	}
	if msg, n, ok := f.persist.takeDegradeNotice(); ok {
		f.journal.add(Event{Session: -1, Type: "persist-degraded", Err: msg, Attempt: n})
	}
	attempt, ok := f.persist.claimRoll()
	if !ok {
		return
	}
	if attempt > 0 {
		f.journal.add(Event{Session: -1, Type: "persist-rearm", Attempt: attempt})
	}
	if f.persist.rollEpoch(f.journal, f.capture, attempt) == nil && attempt > 0 {
		f.journal.add(Event{Session: -1, Type: "persist-rearmed", Attempt: attempt})
	}
}

// capture takes the state a journal's head holds: the scheduler, every
// session's watchdog posture and the next session ID under the fleet lock,
// then the store.
func (f *Fleet) capture() liveState {
	f.mu.Lock()
	st := liveState{sched: f.sched.Export(), drift: f.captureDriftLocked(), nextID: f.nextID, final: f.closed}
	f.mu.Unlock()
	// A remote store is the daemon's to persist: writing its contents into
	// this fleet's WAL would re-import another process's entries (and stale
	// generations) on recovery, so the WAL records an empty store.
	if f.cfg.StoreAddr == "" {
		st.entries = f.store.Export()
	}
	return st
}
