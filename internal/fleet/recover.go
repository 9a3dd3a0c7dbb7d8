// Crash recovery: rebuild a fleet's durable state from its state dir.
// The invariants, in order of importance:
//
//  1. No committed profile-store entry is lost: entries live in the
//     journal's head, and commits after it roll forward from the records
//     that follow (store mutations always precede their journal events, so
//     a roll seeds every store record its head's export may predate;
//     replaying a little extra is idempotent).
//  2. No submitted session is lost: every session whose journal lacks a
//     terminal record is re-admitted. A session that was in flight when
//     the process died re-runs as the next attempt — cold, with a
//     derived seed — exactly the retry lane's discipline for a failed
//     attempt; a session still waiting (queue, retry lane, or cancelled
//     by a SIGINT drain) is re-admitted as the attempt it was waiting
//     for. Sessions with closure-carrying specs re-run under the fleet's
//     base config (closures cannot survive a process).
//  3. Scheduler posture survives: the virtual clock, policy counters,
//     and breaker states import from the head, then breaker edges
//     journaled after it roll forward coarsely.
//
// Recovery rebuilds the fleet in memory first: store and scheduler
// imported, every pending session re-admitted with its re-tune lane
// posture. Only then does the fresh epoch open (persister.startEpoch, the
// same opener as birth and re-arm), so its head captures the restored
// posture and its staged journal is seeded with the re-admissions' "queued"
// records in one batch. Until the staged journal is renamed over the old
// one, the old journal still names every pending session; from the rename
// on, the new one does.
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
	// JournalSalvage reports WAL damage (a torn tail from the crash is
	// normal and harmless).
	JournalSalvage wal.Salvage `json:"journal_salvage"`
	// Events is how many journal events the crashed epoch left behind;
	// Replayed counts the store/breaker events rolled forward over the
	// journal's head.
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
	return b.String()
}

// breakerEdge is a journaled breaker transition rolled forward over the
// journal's head.
type breakerEdge struct {
	key  admission.Key
	open bool
}

// pendingSession is one session owed a re-admission: its journal fold
// (spec, whether it was in flight, re-tune lane posture), the attempt it
// re-runs as, the detector posture the head kept, and the index of its
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
	if cfg.StoreAddr == "" {
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
	// head then holds the restored lane posture, and its journal is seeded
	// with every re-admission. No crash instant loses a session.
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
	f.initPersist(st)
	st.rec.Epoch = f.persist.epoch
	f.startWorkers()
	return f, st.rec, nil
}

// PendingSessions reports how many sessions in stateDir's journal never
// reached a terminal record — the work Recover would re-admit and a fresh
// epoch would discard. A missing or empty state dir reports zero; one that
// cannot be read (errLegacyStateDir included) reports the error, because
// "nothing pending" would license a fresh epoch on top of it.
func PendingSessions(stateDir string) (int, error) {
	st, err := readState(stateDir)
	if err != nil {
		return 0, err
	}
	return len(st.pending), nil
}

// errLegacyStateDir refuses a state dir an older binary wrote in a layout
// this one no longer reads — the sharded snapshot files, or a snapshot.wal
// beside the journal: store entries and scheduler state live in files
// recovery would silently skip.
var errLegacyStateDir = errors.New("fleet: state dir holds an older binary's snapshot layout, which this binary cannot read: " +
	"pass -fresh to discard the state")

// legacyLayoutFiles names the older layouts' files present in dir.
func legacyLayoutFiles(dir string) []string {
	var names []string
	for _, pattern := range []string{"manifest.wal", "shard-*.wal", "snapshot.wal"} {
		paths, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, p := range paths {
			names = append(names, filepath.Base(p))
		}
	}
	return names
}

// readState salvages the journal and distils the recovered state: the
// head's scheduler, watchdog and store records, then every event after
// them. Only unreadable directories and the legacy layouts are errors;
// damaged files salvage. A stage file (journalStageFile) is a roll that
// never published, and is not read.
func readState(dir string) (*recoveredState, error) {
	if stale := legacyLayoutFiles(dir); len(stale) > 0 {
		return nil, fmt.Errorf("%w (%s: %s)", errLegacyStateDir, dir, strings.Join(stale, ", "))
	}
	st := &recoveredState{
		entries: make(map[Key]Entry),
		rec:     &Recovery{StateDir: dir},
	}
	recs, sal, err := wal.ReadAll(filepath.Join(dir, journalFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	st.rec.JournalSalvage = sal

	// One pass: the stamp, the head, then the events. Store and breaker
	// records roll forward over the head (a roll seeds only the ones the
	// head may predate, whoever's session they name); every other record
	// folds into its session's story (the same fold the live journal keeps,
	// where store and breaker records move no view), so a session whose
	// history a roll dropped is not revived by a seeded store record.
	var (
		fd     fold
		dets   []DriftRecord
		nextID int
	)
	for i, rec := range recs {
		var e Event
		if json.Unmarshal(rec, &e) == nil && e.Type != "" {
			st.rec.Events++
			st.rec.Replayed++
			switch e.Type {
			case "store-commit":
				if e.Entry != nil {
					st.put(Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine}, *e.Entry)
				}
			case "store-invalidate":
				delete(st.entries, Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine})
			case "breaker-open":
				st.breakers = append(st.breakers, breakerEdge{admission.Key{Bench: e.Bench, Input: e.Input}, true})
			case "breaker-closed":
				st.breakers = append(st.breakers, breakerEdge{admission.Key{Bench: e.Bench, Input: e.Input}, false})
			default:
				st.rec.Replayed--
				fd.apply(e)
			}
			continue
		}
		var (
			meta walMeta
			sc   walSched
			wd   walDrift
			ke   KeyedEntry
		)
		switch {
		case i == 0 && json.Unmarshal(rec, &meta) == nil && meta.Wal == "journal":
			st.prevEpoch, nextID = meta.Epoch, meta.NextID
		case json.Unmarshal(rec, &sc) == nil && sc.Sched != nil:
			st.sched = sc.Sched
		case json.Unmarshal(rec, &wd) == nil && len(wd.Drift) > 0:
			dets = wd.Drift
		case json.Unmarshal(rec, &ke) == nil && ke.Key.Bench != "":
			st.put(ke.Key, ke.Entry)
		}
	}
	st.rec.PrevEpoch = st.prevEpoch

	// Fold the head's watchdog records in. For grants and completed
	// re-tunes the journal and head converge on max; the detector posture
	// only exists here. The records after the head are authoritative for
	// whether a re-tune admission is pending.
	detOf := make(map[int]*drift.State)
	for _, d := range dets {
		sf := fd.sessions[d.Session]
		if sf == nil {
			continue // no journal history to attach it to
		}
		sf.granted = max(sf.granted, d.Granted)
		sf.Retunes = max(sf.Retunes, d.Retunes)
		if sf.retuneDistance == 0 {
			sf.retuneDistance = d.Distance
		}
		det := d.Detector
		detOf[d.Session] = &det
	}

	ids := make([]int, 0, len(fd.sessions))
	for id := range fd.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	st.rec.Sessions = len(ids)
	st.maxID = nextID - 1
	if n := len(ids); n > 0 {
		st.maxID = max(st.maxID, ids[n-1])
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
		ps := pendingSession{oldID: id, fold: sf, attempt: sf.Attempt, det: detOf[id], record: len(st.rec.Records)}
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

// put sets a recovered store entry, keeping first-commit order for a
// deterministic Import.
func (st *recoveredState) put(k Key, e Entry) {
	if _, seen := st.entries[k]; !seen {
		st.order = append(st.order, k)
	}
	st.entries[k] = e
}
