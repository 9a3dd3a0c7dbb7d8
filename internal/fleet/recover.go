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
// Recovery rebuilds the fleet in memory first: store and scheduler
// imported, every pending session re-admitted with its re-tune lane
// posture. Only then does the fresh epoch open (persister.startEpoch, the
// same opener as birth and re-arm), so its snapshot captures the restored
// posture and its staged journal is seeded with the re-admissions' "queued"
// records in one batch. Until the staged journal is renamed over the old
// one, the old journal still names every pending session under the new
// snapshot; from the rename on, the new one does — both pairings readState
// reads consistently.
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

// RecoveredSession is one pre-crash session's distilled history: the same
// view of its journal a live session's status reads. For a session that
// reached a terminal record before the crash, the view is its journaled
// outcome and Session is nil; for a re-admitted session, the view is the
// attempt it re-runs as, and Session is the live handle the recovered fleet
// is running it under (its ID differs from OldID — recovery continues the
// ID space, it does not reuse it).
type RecoveredSession struct {
	OldID int
	SessionView
	Session *Session
}

// Summary renders the one-line operator account rpg2-fleet prints.
func (r *Recovery) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered epoch %d -> %d: %d sessions submitted pre-crash, %d terminal, %d requeued (%d waiting, %d in-flight), %d store entries, %d breakers",
		r.PrevEpoch, r.Epoch, r.Sessions, r.Terminal, len(r.Requeued),
		r.RequeuedWaiting, r.RequeuedInFlight, r.StoreEntries, r.Breakers)
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

// pendingSession is one session owed a re-admission: its journal fold
// (spec, whether it was in flight, re-tune lane posture), the attempt it
// re-runs as, the detector posture the snapshot kept, and the index of its
// entry in Recovery.Records.
type pendingSession struct {
	oldID   int
	fold    *sessionFold
	attempt int
	det     *drift.State
	record  int
}

// recoveredState is everything readState distils from the state dir.
type recoveredState struct {
	prevEpoch int
	sched     *admission.PersistState
	entries   map[Key]Entry
	order     []Key // commit order for deterministic Import
	breakers  []breakerEdge
	pending   []pendingSession
	maxID     int // highest pre-crash session ID (-1 when none)
	rec       *Recovery
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
		f.store.Import(entries)
	}
	if st.sched != nil {
		f.sched.Import(*st.sched)
	}
	for _, be := range st.breakers {
		f.sched.ReplayBreaker(be.key, be.open)
	}
	st.rec.StoreEntries = len(st.entries)
	st.rec.Breakers = len(f.sched.Breakers())

	// Re-admit BEFORE the epoch opens and the workers start: the epoch's
	// snapshot then holds the restored lane posture, and its journal is
	// seeded with every re-admission. No crash instant loses a session.
	for _, ps := range st.pending {
		sf := ps.fold
		s := f.submitRecovered(sf.spec.Spec(), ps.attempt)
		if sf.granted > 0 || sf.Retunes > 0 || sf.Retuning || ps.det != nil {
			// Restore the re-tune lane posture before workers can dispatch
			// the session: the fold's posture (consumed grants, completed
			// count, warm seed), which the scheduler budgets against, and
			// the detector to resume once the re-run re-activates.
			s.mu.Lock()
			s.recoveredDet = ps.det
			s.mu.Unlock()
			f.journal.restoreLane(s.ID, sf.SessionView)
			if sf.Retuning {
				// Restate the lane in the fresh epoch's journal so a second
				// crash still sees it. A restated retune-scheduled has no
				// paired drift-detected: the detection happened in a prior
				// epoch and is not re-claimed.
				f.journal.add(Event{
					Session: s.ID, Type: "retune-scheduled",
					Kind:  s.Spec.Kind.String(),
					Bench: s.Spec.Bench, Input: s.Spec.Input,
					Attempt: ps.attempt, Retune: sf.granted,
					Distance: sf.retuneDistance,
				})
				st.rec.RequeuedRetuning++
			}
		}
		st.rec.Requeued = append(st.rec.Requeued, s)
		st.rec.Records[ps.record].Session = s
		if sf.inFlight {
			st.rec.RequeuedInFlight++
		} else {
			st.rec.RequeuedWaiting++
		}
	}
	f.initPersist()
	st.rec.Epoch = f.persist.epoch
	f.startWorkers()
	return f, st.rec, nil
}

// PendingSessions reports how many sessions in stateDir's journal never
// reached a terminal record — the work Recover would re-admit and a fresh
// epoch would discard. A missing or empty state dir reports zero; one that
// cannot be read (errShardedStateDir included) reports the error, because
// "nothing pending" would license a fresh epoch on top of it.
func PendingSessions(stateDir string) (int, error) {
	st, err := readState(stateDir)
	if err != nil {
		return 0, err
	}
	return len(st.pending), nil
}

// errShardedStateDir refuses a state dir an older binary wrote in the
// per-shard snapshot layout this one no longer reads: its store entries
// live in files recovery would silently skip.
var errShardedStateDir = errors.New("fleet: state dir holds the sharded snapshot layout, which this binary cannot read: " +
	"run the previous binary once with -resume -store-shards 1 (it rewrites the dir as snapshot.wal), or pass -fresh to discard the state")

// shardedLayoutFiles names the sharded snapshot layout's files present in
// dir.
func shardedLayoutFiles(dir string) []string {
	var names []string
	for _, pattern := range []string{"manifest.wal", "shard-*.wal"} {
		paths, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, p := range paths {
			names = append(names, filepath.Base(p))
		}
	}
	return names
}

// readState salvages the snapshot and journal and distils the recovered
// state. Only unreadable directories and the sharded layout are errors;
// damaged files salvage.
func readState(dir string) (*recoveredState, error) {
	if stale := shardedLayoutFiles(dir); len(stale) > 0 {
		return nil, fmt.Errorf("%w (%s: %s)", errShardedStateDir, dir, strings.Join(stale, ", "))
	}
	st := &recoveredState{
		entries: make(map[Key]Entry),
		rec:     &Recovery{StateDir: dir},
	}

	snap, err := readSnap(dir)
	if err != nil {
		return nil, err
	}
	st.rec.SnapshotSalvage = snap.sal
	snapEpoch, snapSeq := snap.epoch, snap.seq
	st.sched = snap.sched
	for _, ke := range snap.entries {
		if _, seen := st.entries[ke.Key]; !seen {
			st.order = append(st.order, ke.Key)
		}
		st.entries[ke.Key] = ke.Entry
	}
	// A partial snapshot (torn mid-write should be impossible under the
	// atomic rename, but disks lie) cannot vouch for its watermark: replay
	// the whole journal over whatever survived.
	if !snap.sal.Clean() {
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

	// One pass: every record folds into its session's story (the same fold
	// the live journal keeps), and store and breaker records past the
	// watermark roll forward.
	var fd fold
	for _, e := range events {
		fd.apply(e)
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

	// Fold the snapshot's watchdog records in. For grants and completed
	// re-tunes the journal and snapshot converge on max; the detector
	// posture only exists here. The journal is authoritative for whether a
	// re-tune admission is pending — except when the snapshot is from a
	// newer epoch than the journal, in which case it saw further.
	dets := make(map[int]*drift.State)
	for _, d := range snap.drift {
		sf := fd.sessions[d.Session]
		if sf == nil {
			continue // no journal history to attach it to
		}
		sf.granted = max(sf.granted, d.Granted)
		sf.Retunes = max(sf.Retunes, d.Retunes)
		if rel == wal.SnapshotAhead {
			sf.Retuning = d.Retuning
		}
		if sf.retuneDistance == 0 {
			sf.retuneDistance = d.Distance
		}
		det := d.Detector
		dets[d.Session] = &det
	}

	ids := make([]int, 0, len(fd.sessions))
	for id := range fd.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	st.rec.Sessions = len(ids)
	st.maxID = -1
	if n := len(ids); n > 0 {
		st.maxID = ids[n-1]
	}
	for _, id := range ids {
		sf := fd.sessions[id]
		if !sf.pending() || sf.spec == nil {
			// Finished before the crash — or damage swallowed the queued
			// record, leaving nothing to re-admit.
			st.rec.Terminal++
			v := sf.SessionView
			if sf.pending() {
				v.State = Failed.String()
			}
			st.rec.Records = append(st.rec.Records, RecoveredSession{OldID: id, SessionView: v})
			continue
		}
		ps := pendingSession{oldID: id, fold: sf, attempt: sf.Attempt, det: dets[id], record: len(st.rec.Records)}
		if sf.inFlight && !sf.Retuning {
			// The crash killed the attempt mid-run: the next attempt goes
			// cold with a derived seed, like any failed attempt. A crash
			// mid-re-tune-dispatch is the re-tune lane's to re-run instead —
			// the grant stays consumed and the retry budget stays whole.
			ps.attempt++
		}
		st.pending = append(st.pending, ps)
		st.rec.Records = append(st.rec.Records, RecoveredSession{OldID: id, SessionView: SessionView{
			State: Queued.String(), Attempt: ps.attempt, Retunes: sf.Retunes, Retuning: sf.Retuning,
		}})
	}
	return st, nil
}

// snapState is the decoded snapshot file; epoch 0 and seq -1 when there is
// no usable snapshot.
type snapState struct {
	epoch   int
	seq     int
	sched   *admission.PersistState
	drift   []DriftRecord
	entries []KeyedEntry
	sal     wal.Salvage
}

// readSnap decodes snapshot.wal: meta, scheduler state, watchdog state,
// store entries.
func readSnap(dir string) (snapState, error) {
	ss := snapState{seq: -1}
	recs, sal, err := wal.ReadAll(filepath.Join(dir, snapshotFile))
	if err != nil && !os.IsNotExist(err) {
		return ss, err
	}
	ss.sal = sal
	if len(recs) == 0 {
		return ss, nil
	}
	var meta walMeta
	if json.Unmarshal(recs[0], &meta) != nil || meta.Wal != "snapshot" {
		return ss, nil
	}
	ss.epoch, ss.seq = meta.Epoch, meta.Seq
	for _, rec := range recs[1:] {
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
	return ss, nil
}
