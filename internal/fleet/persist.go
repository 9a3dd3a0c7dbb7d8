// Crash-safe persistence for the fleet. When Config.StateDir is set, the
// fleet tees every journal event into an append-only checksummed WAL
// (internal/wal), one file per state dir. Each epoch's journal opens with a
// head — the admission scheduler's exportable state, the watchdog records
// and the profile store's entries — and rolls forward from it: recovery
// (recover.go) imports the head, replays the store and breaker records
// after it, and re-admits every session that never reached a terminal
// record.
//
// The in-memory journal is the one record the WAL is built from. Every
// epoch — the fleet's birth, a recovery, a re-arm, a roll every
// SnapshotEvery store commits, a clean close — opens the same way
// (persister.startEpoch): a staged journal holding the head, then every
// open session's history seeded from the in-memory journal, swapped in
// under the journal lock and published over the live one.
//
// Persistence must never block session progress: a failed disk write flips
// the fleet into degraded in-memory mode — the WAL is abandoned, sessions
// keep running, and the metrics snapshot surfaces "Persistence: degraded"
// with the error. Degradation is not forever: unless the state dir was
// unusable from birth, a degraded persister waits a capped,
// journal-event-counted backoff (a virtual clock, so tests don't sleep)
// and then re-arms by opening a fresh epoch exactly like startup. The arc
// is journaled as "persist-degraded" / "persist-rearm" / "persist-rearmed"
// fleet-level events.
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

// State-dir file names: the journal WAL, and the staged journal a fresh
// epoch is written into until startEpoch atomically renames it over
// journalFile.
const (
	journalFile      = "journal.wal"
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
		Seed: spec.Seed, Cold: spec.Cold,
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
		Seed: r.Seed, Cold: r.Cold,
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

// walMeta is the first record of every journal: its epoch, and the
// session ID the fleet would hand out next when the epoch opened —
// recovery continues the ID space from there even when every session below
// it finished before the roll and left no record behind. Its key stays
// "seq", so the stamp carries no key it did not always carry.
type walMeta struct {
	Wal    string `json:"wal"`
	Epoch  int    `json:"epoch"`
	NextID int    `json:"seq"`
}

// walSched frames the scheduler state in a journal's head.
type walSched struct {
	Sched *admission.PersistState `json:"sched"`
}

// DriftRecord is one session's persisted watchdog posture: the re-tune
// lane grants consumed, completed re-tunes, whether a re-tune admission
// is in flight, the warm seed distance it would start from, and the
// detector's exported state. A journal's head carries one per session with
// an armed watchdog so Recover resumes them armed.
type DriftRecord struct {
	Session  int         `json:"session"`
	Granted  int         `json:"granted,omitempty"`
	Retunes  int         `json:"retunes,omitempty"`
	Retuning bool        `json:"retuning,omitempty"`
	Distance int         `json:"distance,omitempty"`
	Detector drift.State `json:"detector"`
}

// walDrift frames the watchdog records in a journal's head. The record is
// only written when at least one session has drift state.
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
	rearmBase int                  // events between degradation and re-arm

	// hookArmed gates the disk-fault hook: injection starts only once the
	// first epoch is staged, so a chaos run always gets past birth and
	// exercises the degrade/re-arm arc instead of degrading before the
	// first event.
	// Atomic because the hook runs under the WAL's lock while appendEvent
	// holds p.mu — the hook must not touch p.mu.
	hookArmed atomic.Bool

	// retrying is held for read while a failed attempt's retry is decided
	// (Fleet.failSession) and for write by a roll's seed scan, so no scan
	// falls between a session-failed record and the retry-scheduled that
	// re-opens the session: it would read the session as finished and leave
	// its queued record out of the new epoch.
	retrying sync.RWMutex

	mu        sync.Mutex
	epoch     int
	log       *wal.Log
	written   int // records in the journals earlier rolls replaced
	commits   int // store commits since the last roll
	rolls     int
	rolling   bool // a claimed roll (claimRoll) is running
	degraded  bool
	err       error
	closed    bool
	permanent bool // degraded from birth or by refusal: never re-arm
	notice    bool // a degradation tendPersist has not journaled yet

	rearmWait     int // journal events left before the next re-arm attempt
	rearmBackoff  int // current backoff (doubles per failed attempt, capped)
	rearmAttempts int
	rearms        int
	degradations  int
}

// faultHook adapts the configured disk injector to the wal layer's hook
// shape, gated on hookArmed. Nil when no injector is configured, so the
// zero-knob fleet takes no new code path at all.
func (p *persister) faultHook() func(op string) error {
	if p.disk == nil {
		return nil
	}
	return func(op string) error {
		if !p.hookArmed.Load() {
			return nil
		}
		return p.disk.Check(journalFile, op)
	}
}

// roll names the journal's live and staging paths for wal's epoch roll.
func (p *persister) roll() wal.Roll {
	return wal.Roll{
		Live:   filepath.Join(p.dir, journalFile),
		Stage:  filepath.Join(p.dir, journalStageFile),
		Config: wal.Config{Sync: p.fsync, FaultHook: p.faultHook()},
	}
}

// liveState is what a journal's head holds — the scheduler's exportable
// state, the watchdog records, the store's entries and the next session
// ID — and whether the fleet is closed, when the roll keeps every
// session's history rather than the open ones'.
type liveState struct {
	sched   admission.PersistState
	drift   []DriftRecord
	entries []KeyedEntry
	nextID  int
	final   bool
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
	if rearmBase <= 0 {
		rearmBase = 64
	}
	return &persister{
		dir: dir, snapEvery: snapEvery, fsync: cfg.Fsync,
		disk: cfg.DiskFaults, rearmBase: rearmBase,
	}, nil
}

// startEpoch opens a fresh epoch from the in-memory journal j, the one way
// the fleet's birth, Recover, a re-arm, a periodic roll and Close all start
// one: beginEpoch, then publish the staged journal over journalFile and
// retire the journal it replaces. An error leaves the live journal and the
// persister as they were; a failed publish degrades the persister like any
// other write failure. Callers run one roll at a time (claimRoll), and no
// lock is held across the publish's fsync.
func (p *persister) startEpoch(j *Journal, capture func() liveState) error {
	p.mu.Lock()
	old := p.log
	p.mu.Unlock()
	if err := p.beginEpoch(j, capture); err != nil {
		return err
	}
	p.mu.Lock()
	log := p.log
	p.mu.Unlock()
	err := p.roll().Publish(log)
	if old != nil {
		// Everything the old journal holds that has a future is in the new
		// one; a commit still waiting on it moves over (commit).
		old.Abort()
	}
	if err != nil {
		p.mu.Lock()
		if p.log == log {
			p.failLocked(err)
		}
		p.mu.Unlock()
	}
	return nil
}

// beginEpoch is the first half of the roll (wal.Roll.Begin). The staged
// journal gets the next epoch's stamp and the head — capture's state, taken
// after reading j.LastSeq() as w0 — while the live journal is untouched.
// Then, under the journal lock, so no event slips between the scan and the
// swap, it is seeded with every open session's history (the fold's
// reading, the same readState makes, so a later crash still re-admits
// them) and the store and breaker records past w0, which the head's export
// may predate (store mutations precede their journal events, so none at or
// below w0 can), and swapped in: the next event flows through the sink into
// it. The scan starts at the oldest pending session's first record, or just
// past w0 if that is earlier; a closing roll keeps every session's history
// and scans from the start, once no retry decision is in progress
// (retrying). Until the publish, recovery reads the old
// journal, and a commit on the stage waits for the publish
// (wal.Log.Commit). Injected disk faults (Config.DiskFaults) arm once the
// first stage is seeded: birth either succeeds or degrades permanently, so
// the injector targets the steady state the re-arm machinery can heal.
func (p *persister) beginEpoch(j *Journal, capture func() liveState) error {
	w0 := j.LastSeq()
	st := capture()
	p.mu.Lock()
	epoch := p.epoch + 1
	p.mu.Unlock()
	head, err := encodeHead(epoch, st)
	if err != nil {
		return err
	}
	log, err := p.roll().Begin(head[0])
	if err != nil {
		return err
	}
	for _, rec := range head[1:] {
		if err := log.Write(rec); err != nil {
			log.Abort()
			return err
		}
	}
	var seedErr error
	p.retrying.Lock()
	j.withLock(func(events []Event, fd *fold) {
		from := 0
		if !st.final {
			from = w0 + 1
			if seq := fd.oldestPending(); seq >= 0 && seq < from {
				from = seq
			}
		}
		for _, e := range events[from:] {
			switch e.Type {
			case "store-commit", "store-invalidate", "breaker-open", "breaker-closed":
				if e.Seq <= w0 {
					continue
				}
			default:
				if e.Session < 0 || !st.final && !fd.sessions[e.Session].pending() {
					continue
				}
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
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.log != nil {
			p.written += p.log.Records()
		}
		p.log, p.epoch = log, epoch
		p.commits = 0
		p.rolls++
		p.degraded, p.err, p.notice = false, nil, false
	})
	p.retrying.Unlock()
	if seedErr != nil {
		log.Abort()
		return seedErr
	}
	p.hookArmed.Store(true)
	return nil
}

// encodeHead frames an epoch's stamp and head: meta, the scheduler state,
// the watchdog state (only when non-empty), then the store entries.
func encodeHead(epoch int, st liveState) ([][]byte, error) {
	recs := make([][]byte, 0, len(st.entries)+3)
	m, _ := json.Marshal(walMeta{Wal: "journal", Epoch: epoch, NextID: st.nextID})
	recs = append(recs, m)
	sc, err := json.Marshal(walSched{Sched: &st.sched})
	if err != nil {
		return nil, fmt.Errorf("encode scheduler state: %w", err)
	}
	recs = append(recs, sc)
	if len(st.drift) > 0 {
		db, err := json.Marshal(walDrift{Drift: st.drift})
		if err != nil {
			return nil, fmt.Errorf("encode drift state: %w", err)
		}
		recs = append(recs, db)
	}
	for _, ke := range st.entries {
		b, err := json.Marshal(ke)
		if err != nil {
			return nil, fmt.Errorf("encode store entry: %w", err)
		}
		recs = append(recs, b)
	}
	return recs, nil
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
		if p.degraded && !p.closed && !p.permanent && p.rearmWait > 0 {
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
	if e.Type == "store-commit" {
		p.commits++
	}
}

// commit is the journal's durability barrier under fsync-always: it returns
// once every record appendEvent wrote before the call is on stable storage
// in the journal recovery reads (or the persister has degraded trying). It
// runs outside the journal lock and outside p.mu, so concurrent commit
// points share one fsync and events keep landing meanwhile. A log a roll
// replaced meanwhile hands the wait to its successor, which carries every
// record of the old one that has a future.
func (p *persister) commit() {
	for {
		p.mu.Lock()
		log := p.log
		skip := p.degraded || p.closed || p.fsync != wal.SyncAlways
		p.mu.Unlock()
		if skip {
			return
		}
		err := log.Commit()
		if err == nil {
			return
		}
		p.mu.Lock()
		current := p.log == log
		if current && !p.closed {
			p.failLocked(err)
		}
		p.mu.Unlock()
		if current {
			return
		}
	}
}

// claimRoll grants the next roll to exactly one worker: a re-arm once a
// degraded persister's backoff clock has run out (its attempt number rides
// the claim, for journaling), or a periodic roll once SnapshotEvery store
// commits have accumulated (attempt 0). rollEpoch releases the claim.
func (p *persister) claimRoll() (attempt int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.rolling || p.closed || p.permanent:
		return 0, false
	case p.degraded:
		if p.rearmWait > 0 {
			return 0, false
		}
		p.rearmAttempts++
		attempt = p.rearmAttempts
	case p.commits < p.snapEvery:
		return 0, false
	}
	p.rolling = true
	return attempt, true
}

// rollEpoch runs a claimed roll and releases the claim. A periodic roll
// that fails to stage degrades the persister like any write failure. A
// re-arm that fails to stage stays degraded and doubles the backoff up to
// 8x the base; one whose publish fails re-degrades through the usual path
// (a fresh backoff at base — the disk did accept a whole staged journal,
// so it counts as a new incident). The caller must NOT hold the fleet lock.
func (p *persister) rollEpoch(j *Journal, capture func() liveState, attempt int) error {
	err := p.startEpoch(j, capture)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rolling = false
	switch {
	case err != nil && attempt == 0:
		p.failLocked(err)
	case err != nil:
		p.err = err
		p.rearmBackoff = min(max(p.rearmBackoff*2, p.rearmBase), 8*p.rearmBase)
		p.rearmWait = p.rearmBackoff
	case attempt > 0:
		p.rearms++
		if p.degraded {
			err = p.err
		}
	}
	return err
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
	if !p.permanent {
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

// close ends a healthy persister with a final roll — so a clean restart
// finds the scheduler's clock and counters, the watchdog postures and every
// session the fleet ran — then flushes and closes the WAL. Idempotent; the
// caller's workers have stopped, so no claimed roll is running.
func (p *persister) close(j *Journal, capture func() liveState) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	final := !p.degraded
	p.mu.Unlock()
	if final {
		if err := p.startEpoch(j, capture); err != nil {
			p.fail(err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil && !p.degraded {
		if err := p.log.Close(); err != nil {
			p.degraded, p.err = true, err
		}
	}
}

// health fills the snapshot's persistence block. WALRecords counts every
// record this persister wrote, heads and seeds included, across rolls;
// WALSnapshots counts the rolls.
func (p *persister) health(s *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded {
		s.Persistence = "degraded"
		if p.err != nil {
			s.PersistenceError = p.err.Error()
		}
		if !p.permanent {
			s.PersistRearmIn = p.rearmWait
		}
	} else {
		s.Persistence = "active"
	}
	s.WALEpoch = p.epoch
	s.WALSnapshots = p.rolls
	s.WALRecords = p.written
	if p.log != nil {
		s.WALRecords += p.log.Records()
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
	return &persister{dir: dir, degraded: true, err: err, permanent: true, degradations: 1}
}
