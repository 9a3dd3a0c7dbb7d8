// Crash-safe persistence for the fleet. When Config.StateDir is set, the
// fleet tees every journal event into an append-only checksummed WAL
// (internal/wal) and periodically snapshots the profile store plus the
// admission scheduler's exportable state into a second, atomically
// replaced file. Recovery (recover.go) is snapshot + roll-forward: load
// the last snapshot, replay the journal events past its watermark, and
// re-admit every session that never reached a terminal record.
//
// The in-memory journal is the one record the WAL is built from. Every
// epoch — the fleet's birth, a recovery, a re-arm — opens the same way
// (persister.startEpoch): a snapshot of live state at the journal's tail,
// then a staged journal seeded from the in-memory one with every open
// session's history, swapped in under the journal lock and published.
//
// Persistence must never block session progress: a failed disk write flips
// the fleet into degraded in-memory mode — the WAL is abandoned, sessions
// keep running, and the metrics snapshot surfaces "Persistence: degraded"
// with the error. Degradation is no longer forever: unless re-arming is
// disabled (Config.RearmBackoff < 0) or the state dir was unusable from
// birth, a degraded persister waits a capped, journal-event-counted
// backoff (a virtual clock, so tests don't sleep) and then re-arms by
// opening a fresh epoch exactly like startup. The arc is journaled as
// "persist-degraded" / "persist-rearm" / "persist-rearmed" fleet-level
// events.
package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rpg2/internal/admission"
	"rpg2/internal/baselines"
	"rpg2/internal/drift"
	"rpg2/internal/faults"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// State-dir file names: the event WAL, the snapshot (meta + scheduler +
// watchdog + store entries, replaced atomically), and the staged journal a
// fresh epoch is seeded into until startEpoch atomically renames it over
// journalFile.
const (
	journalFile      = "journal.wal"
	snapshotFile     = "snapshot.wal"
	journalStageFile = "journal.next"
)

// SpecRecord is the JSON-safe projection of a SessionSpec the WAL
// persists on "queued" events so a crashed fleet can re-admit waiting
// sessions. Closure-carrying fields (Spec.Config's hooks) cannot survive
// a process, so recovered sessions re-run under the fleet's base
// controller config; a Machine override is carried by name.
type SpecRecord struct {
	Bench             string                 `json:"bench"`
	Input             string                 `json:"input,omitempty"`
	Kind              uint8                  `json:"kind,omitempty"`
	Priority          int                    `json:"priority,omitempty"`
	Machine           string                 `json:"machine,omitempty"`
	Seed              int64                  `json:"seed,omitempty"`
	Cold              bool                   `json:"cold,omitempty"`
	RunSeconds        float64                `json:"run_seconds,omitempty"`
	TailSeconds       float64                `json:"tail_seconds,omitempty"`
	TailWindows       int                    `json:"tail_windows,omitempty"`
	TailWindowSeconds float64                `json:"tail_window_seconds,omitempty"`
	Distance          int                    `json:"distance,omitempty"`
	Candidates        []int                  `json:"candidates,omitempty"`
	Sweep             *baselines.SweepConfig `json:"sweep,omitempty"`
	ProfileSeconds    float64                `json:"profile_seconds,omitempty"`
	Tenant            string                 `json:"tenant,omitempty"`
}

// RecordSpec projects a spec into its JSON-safe WAL form — the same
// projection the daemon's HTTP submit endpoint accepts on the wire.
func RecordSpec(spec SessionSpec) *SpecRecord {
	r := &SpecRecord{
		Bench: spec.Bench, Input: spec.Input, Kind: uint8(spec.Kind),
		Priority: spec.Priority, Seed: spec.Seed, Cold: spec.Cold,
		RunSeconds: spec.RunSeconds, TailSeconds: spec.TailSeconds,
		TailWindows: spec.TailWindows, TailWindowSeconds: spec.TailWindowSeconds,
		Distance: spec.Distance, Candidates: spec.Candidates,
		Sweep: spec.Sweep, ProfileSeconds: spec.ProfileSeconds,
		Tenant: spec.Tenant,
	}
	if spec.Machine != nil {
		r.Machine = spec.Machine.Name
	}
	return r
}

// Spec rehydrates the projection. An unknown machine-override name falls
// back to the fleet's machine (dropping the override, not the session).
func (r *SpecRecord) Spec() SessionSpec {
	s := SessionSpec{
		Bench: r.Bench, Input: r.Input, Kind: Kind(r.Kind),
		Priority: r.Priority, Seed: r.Seed, Cold: r.Cold,
		RunSeconds: r.RunSeconds, TailSeconds: r.TailSeconds,
		TailWindows: r.TailWindows, TailWindowSeconds: r.TailWindowSeconds,
		Distance: r.Distance, Candidates: r.Candidates,
		Sweep: r.Sweep, ProfileSeconds: r.ProfileSeconds,
		Tenant: r.Tenant,
	}
	if r.Machine != "" {
		if m, ok := machine.ByName(r.Machine); ok {
			s.Machine = &m
		}
	}
	return s
}

// walMeta is the first record of every state file: it names the file's
// role ("journal" or "snapshot") and epoch, and (for the snapshot) the
// journal watermark — the highest event Seq whose effects the snapshot
// already folds in.
type walMeta struct {
	Wal   string `json:"wal"`
	Epoch int    `json:"epoch"`
	Seq   int    `json:"seq"`
}

// walSched frames the scheduler state inside a snapshot file.
type walSched struct {
	Sched *admission.PersistState `json:"sched"`
}

// DriftRecord is one session's persisted watchdog posture: the re-tune
// lane grants consumed, completed re-tunes, whether a re-tune admission
// is in flight, the warm seed distance it would start from, and the
// detector's exported state. A WAL snapshot carries one per session with
// an armed watchdog so Recover resumes them armed.
type DriftRecord struct {
	Session  int         `json:"session"`
	Granted  int         `json:"granted,omitempty"`
	Retunes  int         `json:"retunes,omitempty"`
	Retuning bool        `json:"retuning,omitempty"`
	Distance int         `json:"distance,omitempty"`
	Detector drift.State `json:"detector"`
}

// walDrift frames the watchdog records inside a snapshot file. The record
// is only written when at least one session has drift state, so zero-knob
// snapshots stay byte-identical to the pre-watchdog fleet.
type walDrift struct {
	Drift []DriftRecord `json:"drift"`
}

// persister owns the fleet's on-disk state. All methods are safe for
// concurrent use and degrade (rather than fail) on disk errors.
type persister struct {
	dir       string
	snapEvery int
	fsync     wal.SyncMode
	disk      *faults.DiskInjector // nil: no injected disk faults
	rearmBase int                  // events between degradation and re-arm (<= 0: never)

	// hookArmed gates the disk-fault hook: injection starts only once the
	// first epoch is staged, so a chaos run always gets past birth and
	// exercises the degrade/re-arm arc instead of degrading before the
	// first event.
	// Atomic because the hook runs under the WAL's lock while appendEvent
	// holds p.mu — the hook must not touch p.mu.
	hookArmed atomic.Bool

	mu        sync.Mutex
	epoch     int
	log       *wal.Log
	lastSeq   int // highest event Seq appended to the WAL
	commits   int // store commits since the last snapshot
	snapshots int
	degraded  bool
	err       error
	closed    bool
	permanent bool // degraded from birth or by refusal: never re-arm
	notice    bool // a degradation tendPersist has not journaled yet

	rearmWait     int // journal events left before the next re-arm attempt
	rearmBackoff  int // current backoff (doubles per failed attempt, capped)
	rearmAttempts int
	rearming      bool
	rearms        int
	degradations  int
}

// faultHook adapts the configured disk injector to the wal layer's hook
// shape for one file family, gated on hookArmed. Nil when no injector is
// configured, so the zero-knob fleet takes no new code path at all.
func (p *persister) faultHook(key string) func(op string) error {
	if p.disk == nil {
		return nil
	}
	return func(op string) error {
		if !p.hookArmed.Load() {
			return nil
		}
		return p.disk.Check(key, op)
	}
}

// roll names the journal's live and staging paths for wal's epoch roll.
func (p *persister) roll() wal.Roll {
	return wal.Roll{
		Live:   filepath.Join(p.dir, journalFile),
		Stage:  filepath.Join(p.dir, journalStageFile),
		Config: wal.Config{Sync: p.fsync, FaultHook: p.faultHook(journalFile)},
	}
}

// liveState is what a snapshot holds beside its watermark: the
// scheduler's exportable state, the watchdog records and the store's
// entries.
type liveState struct {
	sched   admission.PersistState
	drift   []DriftRecord
	entries []KeyedEntry
}

// openPersister prepares dir for the fleet's WAL; startEpoch opens its
// first epoch. An error means the state dir is unusable (nothing was
// destroyed) and the fleet should degrade from birth.
func openPersister(dir string, cfg Config) (*persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 8
	}
	rearmBase := cfg.RearmBackoff
	if rearmBase == 0 {
		rearmBase = 64
	}
	return &persister{
		dir: dir, snapEvery: snapEvery, fsync: cfg.Fsync,
		disk: cfg.DiskFaults, rearmBase: rearmBase,
		lastSeq: -1,
	}, nil
}

// startEpoch opens a fresh epoch from the in-memory journal j, the one way
// the fleet's birth, Recover and a re-arm all start one: beginEpoch, then
// publish the staged journal over journalFile. An error leaves the live
// journal and the persister as they were; a failed publish degrades the
// persister like any other write failure.
func (p *persister) startEpoch(j *Journal, capture func() liveState) error {
	if err := p.beginEpoch(j, capture); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded || p.closed {
		return nil
	}
	if err := p.roll().Publish(p.log); err != nil {
		p.failLocked(err)
	}
	return nil
}

// beginEpoch is the first half of the roll (wal.Roll.Begin). The fresh
// epoch's snapshot of capture's state, at watermark j.LastSeq() read before
// the capture (replaying a little extra on recovery is idempotent), lands
// atomically while the old journal is untouched. Then, under the journal
// lock, so no event slips between the scan and the swap, a staged journal
// is seeded with every open session's history (the fold's reading, the
// same readState makes, so a later crash still re-admits them) and the
// store and breaker records past the watermark, and swapped in: the next
// event flows through the sink into it. Until the publish, recovery reads
// the new snapshot over the old journal (readState's snapshot-ahead
// branch), so neither rolled-forward store commits nor pending sessions are
// orphaned. Injected disk faults (Config.DiskFaults) arm once the first
// stage is seeded: birth either succeeds or degrades permanently, so the
// injector targets the steady state the re-arm machinery can heal.
func (p *persister) beginEpoch(j *Journal, capture func() liveState) error {
	w0 := j.LastSeq()
	st := capture()
	epoch := prevEpoch(p.dir) + 1
	meta, _ := json.Marshal(walMeta{Wal: "journal", Epoch: epoch})
	log, err := p.roll().Begin(meta, func() error {
		return writeSnapshotFile(p.dir, epoch, w0, st, p.faultHook("snapshot"))
	})
	if err != nil {
		return err
	}
	var seedErr error
	j.withLock(func(events []Event, fd *fold) {
		lastSeq := w0
		for _, e := range events {
			include := e.Session >= 0 && fd.sessions[e.Session].pending()
			if !include && e.Seq > w0 {
				switch e.Type {
				case "store-commit", "store-invalidate", "breaker-open", "breaker-closed":
					include = true
				}
			}
			if !include {
				continue
			}
			payload, err := json.Marshal(e)
			if err != nil {
				seedErr = err
				return
			}
			// Write, not Append: the publish's Sync covers the whole seed.
			if err := log.Write(payload); err != nil {
				seedErr = err
				return
			}
			lastSeq = max(lastSeq, e.Seq)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.log, p.epoch, p.lastSeq = log, epoch, lastSeq
		p.commits = 0
		p.snapshots++
		p.degraded, p.err, p.notice = false, nil, false
	})
	if seedErr != nil {
		log.Abort()
		return seedErr
	}
	p.hookArmed.Store(true)
	return nil
}

// prevEpoch finds the newest epoch recorded in dir's state files (0 when
// there are none).
func prevEpoch(dir string) int {
	best := 0
	for _, name := range []string{snapshotFile, journalFile} {
		recs, _, err := wal.ReadAll(filepath.Join(dir, name))
		if err != nil || len(recs) == 0 {
			continue
		}
		var m walMeta
		if json.Unmarshal(recs[0], &m) == nil && m.Epoch > best {
			best = m.Epoch
		}
	}
	return best
}

// appendEvent is the journal sink: it runs under the journal lock, so WAL
// records land in Seq order. Under fsync-always it only writes — durability
// is owed at the journal's commit points (commit), not per record; the
// other policies keep their per-append sync schedule. Failures degrade
// instead of propagating.
func (p *persister) appendEvent(e Event) {
	payload, err := json.Marshal(e)
	if err != nil {
		p.fail(fmt.Errorf("encode event: %w", err))
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded || p.closed {
		// Degraded time is measured in journal events — a virtual clock the
		// re-arm backoff counts down on, so tests never sleep and idle
		// fleets never churn the disk they just failed on.
		if p.degraded && !p.closed && !p.permanent && p.rearmBase > 0 && p.rearmWait > 0 {
			p.rearmWait--
		}
		return
	}
	appendRecord := p.log.Append
	if p.fsync == wal.SyncAlways {
		appendRecord = p.log.Write
	}
	if err := appendRecord(payload); err != nil {
		p.failLocked(err)
		return
	}
	p.lastSeq = e.Seq
	if e.Type == "store-commit" {
		p.commits++
	}
}

// commit is the journal's durability barrier under fsync-always: it returns
// once every record appendEvent wrote before the call is on stable storage
// (or the persister has degraded trying). It runs outside the journal lock
// and outside p.mu, so concurrent commit points share one fsync and events
// keep landing meanwhile.
func (p *persister) commit() {
	p.mu.Lock()
	log := p.log
	skip := p.degraded || p.closed || p.fsync != wal.SyncAlways
	p.mu.Unlock()
	if skip {
		return
	}
	if err := log.Commit(); err != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		// A log swapped out (re-arm) or closed since is not this failure's
		// to degrade.
		if p.log == log && !p.closed {
			p.failLocked(err)
		}
	}
}

// claimSnapshot reports whether enough store commits accumulated to
// justify a fresh snapshot and, when they have, claims the work by
// resetting the counter under the lock — workers racing across the same
// threshold get exactly one true, so exactly one of them snapshots. A
// claimed snapshot that then fails to write degrades the persister, so
// the claim never needs restoring.
func (p *persister) claimSnapshot() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded || p.closed || p.commits < p.snapEvery {
		return false
	}
	p.commits = 0
	return true
}

// watermark is the highest event Seq known to be in the WAL. Capture it
// BEFORE exporting the store: every store mutation happens before its
// journal event, so an export taken afterwards folds in every event up to
// (at least) this Seq, and replaying a little extra is idempotent.
func (p *persister) watermark() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSeq
}

// writeSnapshotFile atomically replaces the snapshot with the given state,
// covering journal events up to seq: meta, the scheduler state, the
// watchdog state (only when non-empty, keeping zero-knob snapshots in the
// pre-watchdog format byte-for-byte), then the store entries. The optional
// hook is the disk-fault seam.
func writeSnapshotFile(dir string, epoch, seq int, st liveState, hook func(op string) error) error {
	payloads := make([][]byte, 0, len(st.entries)+3)
	m, _ := json.Marshal(walMeta{Wal: "snapshot", Epoch: epoch, Seq: seq})
	payloads = append(payloads, m)
	sc, err := json.Marshal(walSched{Sched: &st.sched})
	if err != nil {
		return fmt.Errorf("encode scheduler state: %w", err)
	}
	payloads = append(payloads, sc)
	if len(st.drift) > 0 {
		db, err := json.Marshal(walDrift{Drift: st.drift})
		if err != nil {
			return fmt.Errorf("encode drift state: %w", err)
		}
		payloads = append(payloads, db)
	}
	for _, ke := range st.entries {
		b, err := json.Marshal(ke)
		if err != nil {
			return fmt.Errorf("encode store entry: %w", err)
		}
		payloads = append(payloads, b)
	}
	return wal.WriteAtomicHook(filepath.Join(dir, snapshotFile), payloads, hook)
}

// writeSnapshot writes a snapshot for the live epoch. Callers serialize:
// the fleet holds its snapshot mutex across capture and write, so two
// writes never share a temp file.
func (p *persister) writeSnapshot(seq int, st liveState) {
	p.mu.Lock()
	if p.degraded || p.closed {
		p.mu.Unlock()
		return
	}
	epoch := p.epoch
	p.mu.Unlock()
	err := writeSnapshotFile(p.dir, epoch, seq, st, p.faultHook("snapshot"))
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.failLocked(err)
		return
	}
	p.snapshots++
}

// fail flips the persister into degraded in-memory mode.
func (p *persister) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failLocked(err)
}

func (p *persister) failLocked(err error) {
	if p.degraded {
		return
	}
	p.degraded = true
	p.err = err
	p.degradations++
	if p.log != nil {
		p.log.Abort()
	}
	if !p.permanent && p.rearmBase > 0 {
		p.rearmBackoff = p.rearmBase
		p.rearmWait = p.rearmBackoff
		p.notice = true
	}
}

// takeDegradeNotice claims the one not-yet-journaled degradation so
// tendPersist emits exactly one "persist-degraded" event per degradation,
// no matter how many workers observe it.
func (p *persister) takeDegradeNotice() (msg string, n int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.notice {
		return "", 0, false
	}
	p.notice = false
	if p.err != nil {
		msg = p.err.Error()
	}
	return msg, p.degradations, true
}

// claimRearm grants the re-arm to exactly one worker once the backoff
// clock has run out. The attempt number rides the claim for journaling.
func (p *persister) claimRearm() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.degraded || p.permanent || p.closed || p.rearming ||
		p.rearmBase <= 0 || p.rearmWait > 0 {
		return 0, false
	}
	p.rearming = true
	p.rearmAttempts++
	return p.rearmAttempts, true
}

// rearmFailed records a failed re-arm attempt: stay degraded, double the
// backoff up to 8x the base, and wind the virtual clock back up.
func (p *persister) rearmFailed(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rearming = false
	p.err = err
	b := p.rearmBackoff * 2
	if b > 8*p.rearmBase {
		b = 8 * p.rearmBase
	}
	if b < p.rearmBase {
		b = p.rearmBase
	}
	p.rearmBackoff = b
	p.rearmWait = b
}

// rearm runs one claimed re-arm attempt: a fresh epoch from the live
// journal, with the backoff bookkeeping around it. A staging failure stays
// degraded and backs off further; a failed publish re-degrades through the
// usual path (a fresh backoff at base — the disk did accept a whole
// snapshot and journal, so it counts as a new incident). The caller holds
// snapMu and must NOT hold the fleet lock.
func (p *persister) rearm(j *Journal, capture func() liveState) error {
	if err := p.startEpoch(j, capture); err != nil {
		p.rearmFailed(err)
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rearming = false
	p.rearms++
	if p.degraded {
		return p.err
	}
	return nil
}

// close flushes and closes the WAL; the caller writes the final snapshot
// first. Idempotent.
func (p *persister) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.log != nil && !p.degraded {
		if err := p.log.Close(); err != nil {
			p.degraded, p.err = true, err
		}
	}
}

// health fills the snapshot's persistence block.
func (p *persister) health(s *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded {
		s.Persistence = "degraded"
		if p.err != nil {
			s.PersistenceError = p.err.Error()
		}
		if !p.permanent && p.rearmBase > 0 {
			s.PersistRearmIn = p.rearmWait
		}
	} else {
		s.Persistence = "active"
	}
	s.WALEpoch = p.epoch
	s.WALSnapshots = p.snapshots
	if p.log != nil {
		s.WALRecords = p.log.Records()
	}
	s.PersistDegradations = p.degradations
	s.PersistRearms = p.rearms
	if p.disk != nil {
		s.DiskFaultsInjected = p.disk.Injected()
	}
}

// degradedPersister represents a fleet whose state dir was unusable from
// birth: permanently degraded, never writing — and never re-arming, since
// there is no epoch to heal back into (in the Overwrite-refusal case,
// re-arming would destroy exactly the recoverable state the refusal
// protects).
func degradedPersister(dir string, err error) *persister {
	return &persister{dir: dir, degraded: true, err: err, lastSeq: -1, permanent: true, degradations: 1}
}
