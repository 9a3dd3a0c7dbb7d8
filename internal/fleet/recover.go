// Crash recovery: rebuild a fleet's durable state from its state dir.
// The invariants, in order of importance:
//
//  1. No committed profile-store entry is lost: entries live in the last
//     snapshot, and commits after its watermark roll forward from the
//     journal WAL (store mutations always precede their journal events,
//     so the watermark never overclaims; replaying a little extra is
//     idempotent).
//  2. No submitted session is lost: every session whose journal lacks a
//     terminal record is re-admitted. A session that was in flight when
//     the process died re-runs as the next attempt — cold, with a
//     derived seed — exactly the retry lane's discipline for a failed
//     attempt; a session still waiting (queue, retry lane, or cancelled
//     by a SIGINT drain) is re-admitted as the attempt it was waiting
//     for. Sessions with closure-carrying specs re-run under the fleet's
//     base config (closures cannot survive a process).
//  3. Scheduler posture survives: the virtual clock, policy counters,
//     and breaker states import from the snapshot, then breaker edges
//     journaled after the watermark roll forward coarsely.
//
// Recovery starts a fresh epoch in an order that keeps every crash
// instant recoverable: the rebuilt state is written as a new snapshot
// first (old journal untouched), the pending sessions are re-admitted so
// their "queued" records land in a staged journal, and only then is the
// staged journal atomically renamed over the old one. An interrupted
// recovery therefore leaves either the old journal (pending sessions
// still in it) or the new journal (pending sessions re-journaled) under
// the new snapshot — both pairings readState reads consistently.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rpg2/internal/admission"
	"rpg2/internal/drift"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
)

// Recovery reports what Recover rebuilt and salvaged.
type Recovery struct {
	// StateDir is the recovered state directory; Epoch is the fresh epoch
	// the recovered fleet writes, PrevEpoch the one it recovered.
	StateDir  string `json:"state_dir"`
	Epoch     int    `json:"epoch"`
	PrevEpoch int    `json:"prev_epoch"`
	// JournalSalvage and SnapshotSalvage report WAL damage (a torn tail
	// from the crash is normal and harmless).
	JournalSalvage  wal.Salvage `json:"journal_salvage"`
	SnapshotSalvage wal.Salvage `json:"snapshot_salvage"`
	// Events is how many journal events the crashed epoch left behind;
	// Replayed counts the store/breaker events rolled forward past the
	// snapshot watermark.
	Events   int `json:"events"`
	Replayed int `json:"replayed"`
	// StoreEntries is how many committed profile entries survived.
	StoreEntries int `json:"store_entries"`
	// SnapshotShards is the shard layout the recovered snapshot was
	// written under (1 = the legacy single snapshot file, 0 = no snapshot
	// found); StoreShards is the layout the recovered fleet runs.
	// Resharded reports a mismatch: the entries were re-hashed into the
	// configured layout on Import — recovery never errors on a
	// shard-count change.
	SnapshotShards int  `json:"snapshot_shards,omitempty"`
	StoreShards    int  `json:"store_shards,omitempty"`
	Resharded      bool `json:"resharded,omitempty"`
	// Breakers is how many breaker postures were restored.
	Breakers int `json:"breakers"`
	// Sessions is the distinct session count in the crashed journal;
	// Terminal of those had already finished.
	Sessions int `json:"sessions"`
	Terminal int `json:"terminal"`
	// Requeued holds the re-admitted sessions' new handles, in the old
	// admission order; RequeuedWaiting of them were still waiting at the
	// crash, RequeuedInFlight were mid-run (and re-run cold).
	// RequeuedRetuning counts the re-admissions that were in the re-tune
	// lane — their consumed grants, warm seed distance, and detector
	// posture are restored, so the lane survives the crash intact.
	Requeued         []*Session `json:"-"`
	RequeuedWaiting  int        `json:"requeued_waiting"`
	RequeuedInFlight int        `json:"requeued_in_flight"`
	RequeuedRetuning int        `json:"requeued_retuning,omitempty"`
	// Records distils every pre-crash session for callers that serve
	// session lookups across a restart (the daemon): terminal sessions
	// keep their journaled outcome, re-admitted ones carry their new live
	// handle. Ordered by old session ID.
	Records []RecoveredSession `json:"-"`
}

// RecoveredSession is one pre-crash session's distilled history. For a
// session that reached a terminal record before the crash, State/Err/
// Report reproduce its journaled outcome and Session is nil; for a
// re-admitted session, Session is the live handle the recovered fleet is
// running it under (its ID differs from OldID — recovery continues the ID
// space, it does not reuse it).
type RecoveredSession struct {
	OldID      int
	State      string
	Err        string
	Warm       bool
	Translated bool
	Attempt    int
	Retunes    int
	Retuning   bool
	Report     *rpgcore.Report
	Session    *Session
}

// Summary renders the one-line operator account rpg2-fleet prints.
func (r *Recovery) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered epoch %d -> %d: %d sessions submitted pre-crash, %d terminal, %d requeued (%d waiting, %d in-flight), %d store entries, %d breakers",
		r.PrevEpoch, r.Epoch, r.Sessions, r.Terminal, len(r.Requeued),
		r.RequeuedWaiting, r.RequeuedInFlight, r.StoreEntries, r.Breakers)
	if r.Resharded {
		fmt.Fprintf(&b, "; re-sharded %d -> %d shard layout", r.SnapshotShards, r.StoreShards)
	}
	if r.RequeuedRetuning > 0 {
		fmt.Fprintf(&b, "; %d in the re-tune lane", r.RequeuedRetuning)
	}
	if !r.JournalSalvage.Clean() {
		fmt.Fprintf(&b, "; journal salvage: %s", r.JournalSalvage)
	}
	if !r.SnapshotSalvage.Clean() {
		fmt.Fprintf(&b, "; snapshot salvage: %s", r.SnapshotSalvage)
	}
	return b.String()
}

// breakerEdge is a journaled breaker transition rolled forward past the
// snapshot watermark.
type breakerEdge struct {
	key  admission.Key
	open bool
}

// pendingSession is one session owed a re-admission.
type pendingSession struct {
	oldID   int
	spec    SessionSpec
	attempt int
	// inFlight: the session was mid-run at the crash; its attempt is
	// already bumped and the re-run goes cold with a derived seed.
	inFlight bool
	// Re-tune lane posture: grants already consumed, re-tunes completed,
	// whether a re-tune admission was pending or mid-dispatch (the grant
	// stays consumed; the attempt is NOT bumped — the lane, not the retry
	// lane, owns the re-dispatch), the warm seed distance, and the
	// detector posture to resume.
	granted        int
	retunes        int
	retuning       bool
	retuneDistance int
	det            *drift.State
}

// recoveredState is everything readState distils from the state dir.
type recoveredState struct {
	prevEpoch  int
	snapShards int // shard layout of the recovered snapshot (0 = none)
	sched      *admission.PersistState
	entries    map[Key]Entry
	order      []Key // commit order for deterministic Import
	breakers   []breakerEdge
	pending    []pendingSession
	maxID      int // highest pre-crash session ID (-1 when none)
	rec        *Recovery
}

// Recover rebuilds a fleet from stateDir: profile store, scheduler
// posture, and the sessions that were queued or in flight when the
// previous process died. The returned fleet is live (workers running,
// re-admitted sessions dispatching); Drain it to finish the recovered
// work. cfg.StateDir is overridden by stateDir.
func Recover(stateDir string, cfg Config) (*Fleet, *Recovery, error) {
	if stateDir == "" {
		return nil, nil, errors.New("fleet: Recover needs a state dir")
	}
	if _, err := os.Stat(stateDir); err != nil {
		return nil, nil, fmt.Errorf("fleet: state dir unreadable: %w", err)
	}
	cfg.StateDir = stateDir
	// Recovery consumes the old state: everything the journal holds is
	// re-admitted below, so the fresh epoch may replace the old files.
	cfg.Overwrite = true
	st, err := readState(stateDir)
	if err != nil {
		return nil, nil, err
	}

	f := newFleet(cfg)
	// Continue the crashed epoch's ID space: clients that submitted over
	// the network still hold pre-crash session IDs, so re-admitted (and
	// brand-new) sessions must never collide with them.
	f.nextID = st.maxID + 1
	// A remote store is never re-imported: the daemon owns the live state
	// (and its generations), and the WAL recorded an empty store anyway.
	if f.store != nil && !cfg.DisableStore && cfg.StoreAddr == "" {
		entries := make([]KeyedEntry, 0, len(st.entries))
		for _, k := range st.order {
			if e, ok := st.entries[k]; ok {
				entries = append(entries, KeyedEntry{Key: k, Entry: e})
			}
		}
		// Import hashes each entry into the configured shard layout: a
		// snapshot written under a different shard count (or the legacy
		// single file) re-shards transparently here.
		f.store.Import(entries)
		st.rec.StoreShards = f.store.Shards()
		st.rec.Resharded = st.snapShards > 0 && st.snapShards != st.rec.StoreShards
	}
	if st.sched != nil {
		f.sched.Import(*st.sched)
	}
	for _, be := range st.breakers {
		f.sched.ReplayBreaker(be.key, be.open)
	}
	st.rec.StoreEntries = len(st.entries)
	st.rec.Breakers = len(f.sched.Breakers())

	f.initPersist()
	st.rec.Epoch = 0
	if f.persist != nil {
		st.rec.Epoch = f.persist.epoch
	}

	// Re-admit BEFORE publishing the staged journal and starting workers:
	// the re-admissions' "queued" records (specs included) append to the
	// staged file, so when commitPersist renames it into place the new
	// journal already vouches for every pending session — and until that
	// rename, the old journal still does. No crash instant loses one.
	recordOf := make(map[int]*RecoveredSession, len(st.rec.Records))
	for i := range st.rec.Records {
		recordOf[st.rec.Records[i].OldID] = &st.rec.Records[i]
	}
	for _, ps := range st.pending {
		s := f.submitRecovered(ps.spec, ps.attempt)
		if ps.granted > 0 || ps.retunes > 0 || ps.retuning || ps.det != nil {
			// Restore the re-tune lane posture before workers can dispatch
			// the session: consumed grants, completed count, warm seed, and
			// the detector to resume once the re-run re-activates.
			f.mu.Lock()
			s.item.Retune = ps.granted
			f.mu.Unlock()
			s.mu.Lock()
			s.retunes = ps.retunes
			s.retuning = ps.retuning
			s.retuneDistance = ps.retuneDistance
			s.recoveredDet = ps.det
			s.mu.Unlock()
			if ps.retuning {
				// Restate the lane in the fresh epoch's journal so a second
				// crash still sees it. A restated retune-scheduled has no
				// paired drift-detected: the detection happened in a prior
				// epoch and is not re-claimed.
				f.journal.add(Event{
					Session: s.ID, Type: "retune-scheduled",
					Kind:  s.Spec.Kind.String(),
					Bench: s.Spec.Bench, Input: s.Spec.Input,
					Attempt: ps.attempt, Retune: ps.granted,
					Distance: ps.retuneDistance,
				})
				st.rec.RequeuedRetuning++
			}
		}
		st.rec.Requeued = append(st.rec.Requeued, s)
		if r := recordOf[ps.oldID]; r != nil {
			r.Session = s
		}
		if ps.inFlight {
			st.rec.RequeuedInFlight++
		} else {
			st.rec.RequeuedWaiting++
		}
	}
	f.commitPersist()
	f.startWorkers()
	return f, st.rec, nil
}

// PendingSessions reports how many sessions in stateDir's journal never
// reached a terminal record — the work Recover would re-admit and a fresh
// epoch would discard. A missing, empty, or unreadable state dir reports
// zero.
func PendingSessions(stateDir string) int {
	st, err := readState(stateDir)
	if err != nil {
		return 0
	}
	return len(st.pending)
}

// readState salvages the snapshot and journal and distils the recovered
// state. Only unreadable directories are errors; damaged files salvage.
func readState(dir string) (*recoveredState, error) {
	st := &recoveredState{
		entries: make(map[Key]Entry),
		rec:     &Recovery{StateDir: dir},
	}

	// Snapshot: the legacy single file and the sharded manifest+set are
	// both read; after a shard-count change across restarts, stale files
	// from the other layout may linger, and the higher epoch wins.
	leg, err := readLegacySnap(dir)
	if err != nil {
		return nil, err
	}
	man, err := readShardedSnap(dir)
	if err != nil {
		return nil, err
	}
	snap := leg
	if man.ok && (!leg.ok || man.epoch > leg.epoch) {
		snap = man
	}
	st.rec.SnapshotSalvage = snap.sal
	if snap.ok {
		st.snapShards = snap.shards
		st.rec.SnapshotShards = snap.shards
	}
	snapEpoch, snapSeq := snap.epoch, snap.seq
	st.sched = snap.sched
	for _, ke := range snap.entries {
		if _, seen := st.entries[ke.Key]; !seen {
			st.order = append(st.order, ke.Key)
		}
		st.entries[ke.Key] = ke.Entry
	}
	// A partial snapshot (torn mid-write should be impossible under the
	// atomic rename, but disks lie — and a sharded set can lose a member)
	// cannot vouch for its watermark: replay the whole journal over
	// whatever survived.
	if snap.dirty {
		snapSeq = -1
	}

	// Journal: epoch record then events.
	journalEpoch := 0
	var events []Event
	jRecs, jSal, err := wal.ReadAll(filepath.Join(dir, journalFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	st.rec.JournalSalvage = jSal
	for i, rec := range jRecs {
		if i == 0 {
			var meta walMeta
			if json.Unmarshal(rec, &meta) == nil && meta.Wal == "journal" {
				journalEpoch = meta.Epoch
				continue
			}
		}
		var e Event
		if json.Unmarshal(rec, &e) == nil && e.Type != "" {
			events = append(events, e)
		}
	}
	st.rec.Events = len(events)
	st.prevEpoch = journalEpoch
	if snapEpoch > st.prevEpoch {
		st.prevEpoch = snapEpoch
	}
	st.rec.PrevEpoch = st.prevEpoch

	// The watermark only gates store/breaker roll-forward, and only when
	// the snapshot describes this journal's epoch. An older journal (a
	// previous recovery died between snapshot and journal reset) is fully
	// folded into the snapshot already — but its pending sessions were
	// never re-admitted anywhere, so session tracking still reads it.
	watermark := snapSeq
	rel := wal.Relate(snapEpoch, journalEpoch)
	switch rel {
	case wal.SnapshotAhead:
		watermark = int(^uint(0) >> 1) // fold nothing
	case wal.JournalAhead:
		watermark = -1 // no (usable) snapshot for this epoch: replay all
	}

	type track struct {
		spec       *SpecRecord
		attempt    int
		inFlight   bool
		terminal   bool
		known      bool
		state      string
		errText    string
		warm       bool
		translated bool
		report     *rpgcore.Report
		// Re-tune lane posture, from the journal's drift events plus the
		// snapshot's drift records (the detector only lives in the latter).
		granted        int
		retunes        int
		retuning       bool
		retuneDistance int
		det            *drift.State
	}
	sessions := make(map[int]*track)
	var order []int
	for _, e := range events {
		if e.Session >= 0 {
			tr := sessions[e.Session]
			if tr == nil {
				tr = &track{}
				sessions[e.Session] = tr
				order = append(order, e.Session)
			}
			switch e.Type {
			case "queued":
				tr.spec, tr.known = e.Spec, true
				tr.attempt = e.Attempt
			case "admitted":
				tr.inFlight, tr.attempt = true, e.Attempt
			case "retry-scheduled":
				tr.inFlight, tr.terminal, tr.attempt = false, false, e.Attempt
			case "retune-scheduled":
				// The re-tune lane re-admitted a watched session (or a
				// previous recovery restated the lane). Never terminal, and
				// never the retry lane: the attempt is untouched.
				tr.inFlight, tr.terminal = false, false
				tr.retuning = true
				if e.Retune > tr.granted {
					tr.granted = e.Retune
				}
				tr.retuneDistance = e.Distance
			case "retune-complete":
				tr.retuning = false
				if e.Retune > tr.retunes {
					tr.retunes = e.Retune
				}
			case "session-done", "session-degraded":
				tr.inFlight, tr.terminal = false, true
				tr.state = e.State
				tr.warm, tr.translated = e.Warm, e.Translated
				if e.Report != nil {
					tr.report = e.Report
				}
				if e.Attempt > tr.attempt {
					tr.attempt = e.Attempt
				}
			case "session-failed":
				// A SIGINT drain's cancellations never ran: they are
				// interrupted, not finished, and resume re-admits them.
				tr.inFlight = false
				tr.terminal = e.Err != ErrCanceled.Error()
				if tr.terminal {
					tr.state, tr.errText = e.State, e.Err
				}
			}
		}
		if e.Seq <= watermark {
			continue
		}
		st.rec.Replayed++
		switch e.Type {
		case "store-commit":
			if e.Entry != nil {
				k := Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine}
				if _, seen := st.entries[k]; !seen {
					st.order = append(st.order, k)
				}
				st.entries[k] = *e.Entry
			}
		case "store-invalidate":
			delete(st.entries, Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine})
		case "breaker-open":
			st.breakers = append(st.breakers, breakerEdge{admission.Key{Bench: e.Bench, Input: e.Input}, true})
		case "breaker-closed":
			st.breakers = append(st.breakers, breakerEdge{admission.Key{Bench: e.Bench, Input: e.Input}, false})
		default:
			st.rec.Replayed--
		}
	}

	// Fold the snapshot's watchdog records into the tracks. For grants and
	// completed re-tunes the journal and snapshot converge on max; the
	// detector posture only exists here. The journal is authoritative for
	// whether a re-tune admission is pending — except when the snapshot is
	// from a newer epoch than the journal, in which case it saw further.
	for _, d := range snap.drift {
		tr := sessions[d.Session]
		if tr == nil {
			continue // no journal history to attach it to
		}
		if d.Granted > tr.granted {
			tr.granted = d.Granted
		}
		if d.Retunes > tr.retunes {
			tr.retunes = d.Retunes
		}
		if rel == wal.SnapshotAhead {
			tr.retuning = d.Retuning
		}
		if tr.retuneDistance == 0 {
			tr.retuneDistance = d.Distance
		}
		det := d.Detector
		tr.det = &det
	}

	sort.Ints(order)
	st.rec.Sessions = len(order)
	st.maxID = -1
	if n := len(order); n > 0 {
		st.maxID = order[n-1]
	}
	for _, id := range order {
		tr := sessions[id]
		if tr.terminal || !tr.known || tr.spec == nil {
			// Finished before the crash — or damage swallowed the queued
			// record, leaving nothing to re-admit.
			st.rec.Terminal++
			state := tr.state
			if state == "" {
				state = Failed.String()
			}
			st.rec.Records = append(st.rec.Records, RecoveredSession{
				OldID: id, State: state, Err: tr.errText,
				Warm: tr.warm, Translated: tr.translated,
				Attempt: tr.attempt, Retunes: tr.retunes, Report: tr.report,
			})
			continue
		}
		ps := pendingSession{
			oldID: id, spec: tr.spec.Spec(), attempt: tr.attempt, inFlight: tr.inFlight,
			granted: tr.granted, retunes: tr.retunes, retuning: tr.retuning,
			retuneDistance: tr.retuneDistance, det: tr.det,
		}
		if tr.inFlight && !tr.retuning {
			// The crash killed the attempt mid-run: the next attempt goes
			// cold with a derived seed, like any failed attempt. A crash
			// mid-re-tune-dispatch is the re-tune lane's to re-run instead —
			// the grant stays consumed and the retry budget stays whole.
			ps.attempt++
		}
		st.pending = append(st.pending, ps)
		st.rec.Records = append(st.rec.Records, RecoveredSession{
			OldID: id, State: Queued.String(), Attempt: ps.attempt,
			Retunes: ps.retunes, Retuning: ps.retuning,
		})
	}
	return st, nil
}

// snapState is one decoded snapshot-layout candidate: the legacy single
// file or the manifest-sealed shard set. dirty means the watermark cannot
// be trusted (salvage damage, a missing or epoch-stale shard file) and the
// whole journal must replay over whatever entries survived.
type snapState struct {
	ok      bool
	epoch   int
	seq     int
	shards  int
	sched   *admission.PersistState
	drift   []DriftRecord
	entries []KeyedEntry
	sal     wal.Salvage
	dirty   bool
}

// mergeSalvage folds one member file's salvage into the set's aggregate
// (records and dropped counts summed, first damage reason kept with the
// file named).
func (ss *snapState) mergeSalvage(name string, sal wal.Salvage) {
	ss.sal.Records += sal.Records
	ss.sal.DroppedBytes += sal.DroppedBytes
	ss.sal.DroppedRecords += sal.DroppedRecords
	if !sal.Clean() {
		ss.dirty = true
		if ss.sal.Reason == "" {
			ss.sal.Reason = name + ": " + sal.Reason
		}
	}
}

// damage marks the set untrustworthy for reasons other than byte salvage
// (a missing shard file, a stale-epoch member).
func (ss *snapState) damage(reason string) {
	ss.dirty = true
	if ss.sal.Reason == "" {
		ss.sal.Reason = reason
	}
}

// readLegacySnap decodes the single-file snapshot layout: meta, scheduler
// state, store entries.
func readLegacySnap(dir string) (snapState, error) {
	ss := snapState{seq: -1, shards: 1}
	recs, sal, err := wal.ReadAll(filepath.Join(dir, snapshotFile))
	if err != nil && !os.IsNotExist(err) {
		return ss, err
	}
	ss.sal = sal
	ss.dirty = !sal.Clean()
	if len(recs) == 0 {
		return ss, nil
	}
	var meta walMeta
	if json.Unmarshal(recs[0], &meta) != nil || meta.Wal != "snapshot" {
		return ss, nil
	}
	ss.ok, ss.epoch, ss.seq = true, meta.Epoch, meta.Seq
	ss.absorb(recs[1:])
	return ss, nil
}

// absorb decodes a snapshot-family file's records past its meta —
// scheduler state, watchdog state, store entries — whichever of them the
// file's role carries.
func (ss *snapState) absorb(recs [][]byte) {
	for _, rec := range recs {
		var sc walSched
		if json.Unmarshal(rec, &sc) == nil && sc.Sched != nil {
			ss.sched = sc.Sched
			continue
		}
		var wd walDrift
		if json.Unmarshal(rec, &wd) == nil && len(wd.Drift) > 0 {
			ss.drift = wd.Drift
			continue
		}
		var ke KeyedEntry
		if json.Unmarshal(rec, &ke) == nil && ke.Key.Bench != "" {
			ss.entries = append(ss.entries, ke)
		}
	}
}

// readShardedSnap decodes the sharded snapshot layout. The manifest is
// the source of truth for epoch, watermark, shard count, and scheduler
// state; every shard-*.wal present is then read, in shard-index order:
//
//   - an expected member (index < manifest shard count) at the manifest's
//     epoch or newer contributes its entries; a *newer* epoch is an epoch
//     start that died before its own manifest, and replaying the old
//     journal over its (already fully rolled-forward) entries is
//     convergent, so it is not damage;
//   - an expected member that is missing or stamped *older* than the
//     manifest cannot vouch for the manifest's watermark — its surviving
//     entries are kept but the set goes dirty (full journal replay);
//   - an extra member (index >= shard count) is read only when its epoch
//     is newer than the manifest: an interrupted re-layout to a wider
//     shard count parked entries there that no current-layout file holds.
//     Older extras are stale garbage and are ignored.
func readShardedSnap(dir string) (snapState, error) {
	ss := snapState{seq: -1}
	recs, sal, err := wal.ReadAll(filepath.Join(dir, manifestFile))
	if err != nil && !os.IsNotExist(err) {
		return ss, err
	}
	ss.sal = sal
	ss.dirty = !sal.Clean()
	if len(recs) == 0 {
		return ss, nil
	}
	var meta walMeta
	if json.Unmarshal(recs[0], &meta) != nil || meta.Wal != "manifest" || meta.Shards < 1 {
		return ss, nil
	}
	ss.ok, ss.epoch, ss.seq, ss.shards = true, meta.Epoch, meta.Seq, meta.Shards
	ss.absorb(recs[1:])
	names, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	indexes := make([]int, 0, len(names))
	for _, name := range names {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(name), "shard-%d.wal", &i); err == nil && i >= 0 {
			indexes = append(indexes, i)
		}
	}
	sort.Ints(indexes)
	seen := make(map[int]bool, len(indexes))
	for _, i := range indexes {
		if seen[i] {
			continue
		}
		seen[i] = true
		name := shardFileName(i)
		srecs, sSal, err := wal.ReadAll(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // raced cleanup; the expected-member check below catches real gaps
			}
			return ss, err
		}
		ss.mergeSalvage(name, sSal)
		var smeta walMeta
		if len(srecs) == 0 || json.Unmarshal(srecs[0], &smeta) != nil || smeta.Wal != "shard" {
			if i < ss.shards {
				ss.damage(name + ": unreadable shard meta")
			}
			continue
		}
		switch {
		case i < ss.shards && smeta.Epoch < ss.epoch:
			ss.damage(fmt.Sprintf("%s: epoch %d behind manifest epoch %d", name, smeta.Epoch, ss.epoch))
		case i >= ss.shards && smeta.Epoch <= ss.epoch:
			continue // stale leftover from an older, wider layout
		}
		if i < ss.shards && smeta.Epoch == ss.epoch && smeta.Seq < ss.seq {
			ss.seq = smeta.Seq // defensive: never claim past a member's own watermark
		}
		ss.absorb(srecs[1:])
	}
	for i := 0; i < ss.shards; i++ {
		if !seen[i] {
			ss.damage(shardFileName(i) + " missing")
		}
	}
	return ss, nil
}
