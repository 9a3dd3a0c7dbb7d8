// Package fleet runs RPG² as a long-lived service over many simulated
// target processes at once — the datacenter deployment the paper pitches
// but the seed repo could not express. A Fleet owns an admission queue, a
// bounded worker pool, and a per-session lifecycle state machine wrapping
// the single-process controller; a shared profile store amortises PEBS
// profiling and distance search across sessions on matching workloads; an
// event journal and a metrics layer make the whole thing observable.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rpg2/internal/admission"
	"rpg2/internal/baselines"
	"rpg2/internal/drift"
	"rpg2/internal/faults"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/store/remote"
	"rpg2/internal/wal"
	"rpg2/internal/workloads"
)

// State is a session's position in the fleet lifecycle.
type State uint8

// Session lifecycle states. Profiling/Rewriting/Tuning track the
// controller's phases via its OnPhase hook; Done covers the tuned,
// not-activated and target-exited outcomes, RolledBack and Failed are the
// two unhappy endings, and Degraded marks a session parked by an open
// circuit breaker without ever running.
const (
	Queued State = iota
	Profiling
	Rewriting
	Tuning
	Done
	RolledBack
	Failed
	Degraded
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Profiling:
		return "profiling"
	case Rewriting:
		return "rewriting"
	case Tuning:
		return "tuning"
	case Done:
		return "done"
	case RolledBack:
		return "rolled-back"
	case Failed:
		return "failed"
	case Degraded:
		return "degraded"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Terminal reports whether a session in this state is finished.
func (s State) Terminal() bool {
	return s == Done || s == RolledBack || s == Failed || s == Degraded
}

// legalNext enumerates the state machine's edges. Profiling may jump
// straight to Done (not enough samples → not-activated) and any live state
// may fail; everything else moves strictly forward — except the retry
// lane's re-admission edges (Failed → Queued, RolledBack → Queued), which
// start a fresh attempt. Within one attempt, states only advance.
var legalNext = map[State][]State{
	// Queued -> Done covers a target that exits during init-wait,
	// before the controller's first phase hook fires; Queued -> Degraded
	// is a session parked by an open circuit breaker; Queued -> Tuning is
	// a live re-tune dispatch, which skips profiling and rewriting (the
	// injected kernel is already in place — only the distance moves).
	Queued:    {Profiling, Tuning, Done, Failed, Degraded},
	Profiling: {Rewriting, Tuning, Done, RolledBack, Failed},
	Rewriting: {Tuning, Done, RolledBack, Failed},
	Tuning:    {Done, RolledBack, Failed},
	// Retry re-admissions: a failed or rolled-back attempt re-enters the
	// queue as a cold re-profile attempt. Done -> Queued is the re-tune
	// lane: the watchdog re-admits a *successful* session whose tuned
	// distance drifted stale.
	Failed:     {Queued},
	RolledBack: {Queued},
	Done:       {Queued},
}

// Kind selects what a fleet session does with its target. The zero value
// is the full RPG² optimization; the other kinds run the evaluation's
// reference schemes and shared precomputations through the same admission
// queue, worker pool, journal, and metrics — there is exactly one way to
// run work at scale in this repo, and this is it.
type Kind uint8

const (
	// OptimizeJob runs the four-phase controller (the default).
	OptimizeJob Kind = iota
	// BaselineJob runs the unmodified binary and measures it.
	BaselineJob
	// StaticJob runs a statically prefetched build at Spec.Distance.
	StaticJob
	// SweepJob runs an offline distance sweep (Figures 1-3, 8, Table 3).
	SweepJob
	// ProfileJob collects PEBS candidate sites without optimizing.
	ProfileJob
	// APTGETJob derives the APT-GET scheme's analytic distance.
	APTGETJob
)

func (k Kind) String() string {
	switch k {
	case OptimizeJob:
		return "optimize"
	case BaselineJob:
		return "baseline"
	case StaticJob:
		return "static"
	case SweepJob:
		return "sweep"
	case ProfileJob:
		return "profile"
	case APTGETJob:
		return "apt-get"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SessionSpec names one unit of fleet work: attach RPG² (or a reference
// scheme, per Kind) to a fresh run of a workload and drive it to a
// terminal outcome.
type SessionSpec struct {
	// Bench and Input pick the workload (Input empty for AJ benchmarks).
	Bench string
	Input string
	// Kind selects the job type (default OptimizeJob).
	Kind Kind
	// Priority orders admission: higher-priority sessions dispatch first.
	// Equal priorities dispatch in submission order, and waiting sessions
	// age (every 8 dispatches raise a waiting session's effective priority
	// by one) so low priority delays work but cannot starve it.
	Priority int
	// Machine, when non-nil, overrides the fleet's machine for this
	// session. The profile store is keyed on the effective machine, so
	// the same bench on two machines never cross-seeds.
	Machine *machine.Machine
	// Seed drives the session controller's randomness.
	Seed int64
	// Config, when non-nil, replaces the fleet's base controller
	// configuration for this optimize session (Seed still comes from
	// Spec.Seed).
	Config *rpgcore.Config
	// Cold forces an optimize session to bypass the profile store
	// entirely: no lookup, no commit, no invalidation. A cold session's
	// result depends only on its spec — the determinism the experiments
	// harness requires.
	Cold bool
	// RunSeconds is the simulated end-of-run clock budget; 0 uses the
	// fleet default, negative skips the post-optimization run entirely.
	RunSeconds float64
	// TailSeconds, when positive, ends the run with a measured trailing
	// window of this length instead of a plain run-out; the result is
	// available via Session.Measurement. Baseline and static jobs
	// default to 1 s.
	TailSeconds float64
	// TailWindows and TailWindowSeconds, when TailWindows > 0, measure a
	// post-detach timeline of consecutive windows after an optimize
	// session (Figure 10); available via Session.Tail.
	TailWindows       int
	TailWindowSeconds float64
	// Distance is the static prefetch distance for StaticJob.
	Distance int
	// Candidates are the prefetch-site PCs for StaticJob; empty means
	// profile them first.
	Candidates []int
	// Sweep configures SweepJob; nil uses the paper's default sweep.
	Sweep *baselines.SweepConfig
	// ProfileSeconds is ProfileJob's sampling window (default 2 s).
	ProfileSeconds float64
	// Tenant names the submitter for per-tenant admission quotas and
	// queue-depth backpressure (Config.TenantQuota, MaxTenantQueue). The
	// empty tenant is exempt from both, so untenanted fleets behave
	// exactly as before the field existed.
	Tenant string
}

// Session is one tracked unit of fleet work over one target process.
type Session struct {
	// ID is the fleet-assigned admission number.
	ID int
	// Spec is what was submitted.
	Spec SessionSpec

	// item is the session's admission-queue handle; its scheduler-owned
	// fields are only touched under the fleet's mutex.
	item *admission.Item

	mu          sync.Mutex
	machineName string
	state       State
	warm        bool
	translated  bool
	attempt     int
	report      *rpgcore.Report
	meas        *rpgcore.Measurement
	sweep       *baselines.Sweep
	cands       []int
	distance    int
	tail        []rpgcore.TimelinePoint
	err         error
	wall        time.Duration

	// Drift-watchdog state (zero/nil unless Config.WatchdogInterval armed
	// the watchdog for this session). live is the in-process core session
	// retained past Done so the watchdog can keep sampling and a re-tune
	// can re-enter the search against the still-injected kernel; det is
	// the session's degradation detector; retunes counts completed
	// re-tunes; retuning marks a granted re-tune that has not completed
	// (its next dispatch is a re-tune, not an optimize); retuneDistance
	// seeds the warm re-tune search; recoveredDet is a crash-recovered
	// detector posture to resume; tier remembers how the session was
	// seeded for its eventual terminal metrics; windowMark is the detector
	// sample count when the current watch episode was armed.
	live           *rpgcore.Session
	det            *drift.Detector
	recoveredDet   *drift.State
	tier           seedTier
	retunes        int
	retuning       bool
	retuneDistance int
	windowMark     int
}

// State returns the session's current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Attempt returns the session's current attempt index: 0 for the first
// admission, incremented by each retry-lane re-admission.
func (s *Session) Attempt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempt
}

// Retunes returns how many re-tune lane passes the session completed
// (0 for a session the watchdog never re-admitted).
func (s *Session) Retunes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retunes
}

// Retuning reports whether the session holds a granted re-tune that has
// not completed: its next dispatch re-enters the distance search.
func (s *Session) Retuning() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retuning
}

// Warm reports whether the session was seeded from the profile store.
func (s *Session) Warm() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm
}

// Translated reports whether the session was seeded from a sibling
// machine's profile through the translation layer (never true together
// with Warm).
func (s *Session) Translated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.translated
}

// Report returns the controller's report (nil until terminal or on failure
// before optimization started).
func (s *Session) Report() *rpgcore.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Err returns the failure, if the session failed.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Wall returns the session's wall-clock duration (zero until terminal).
func (s *Session) Wall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wall
}

// Probes returns the number of distance probes the session's search made.
func (s *Session) Probes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.report == nil {
		return 0
	}
	return s.report.Costs.PDEdits
}

// MachineName returns the effective machine the session runs on.
func (s *Session) MachineName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.machineName
}

// event starts a journal record about the session itself — admission,
// lane scheduling, terminal records — with the fields every such record
// carries; callers add the rest.
func (s *Session) event(typ string) Event {
	return Event{
		Session: s.ID, Type: typ, Kind: s.Spec.Kind.String(),
		Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: s.MachineName(),
	}
}

// Measurement returns the end-of-run measurement (nil unless the spec
// requested a trailing window via TailSeconds, or for baseline/static
// jobs, which always measure).
func (s *Session) Measurement() *rpgcore.Measurement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meas
}

// SweepResult returns a SweepJob's distance sweep (nil otherwise).
func (s *Session) SweepResult() *baselines.Sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweep
}

// Candidates returns a ProfileJob's candidate PCs (nil otherwise).
func (s *Session) Candidates() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cands
}

// Distance returns an APTGETJob's derived distance (0 otherwise).
func (s *Session) Distance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.distance
}

// Tail returns the post-detach timeline requested via Spec.TailWindows.
func (s *Session) Tail() []rpgcore.TimelinePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail
}

// Config tunes a Fleet. The zero value of every field has a sensible
// default except Machine, which must be set.
type Config struct {
	// Machine all sessions run on.
	Machine machine.Machine
	// Workers bounds concurrent sessions (default GOMAXPROCS).
	Workers int
	// RunSeconds is the default simulated post-optimization run budget
	// per session (default 2).
	RunSeconds float64
	// Session is the base controller configuration; each session
	// overrides Seed (and, when warm, the seeding fields).
	Session rpgcore.Config
	// Store shares a profile store across fleets; nil creates a private
	// one (unless DisableStore).
	Store Store
	// Builds is the workload build cache sessions construct targets
	// from; nil uses the process-wide shared cache.
	Builds *workloads.BuildCache
	// DisableStore turns off profile reuse: every session runs cold.
	DisableStore bool
	// StoreAddr, when set, replaces the in-process store with a client for
	// a shared rpg2-stored daemon at this base URL (e.g.
	// "http://127.0.0.1:8049"), so several fleet processes share one
	// profile store: generations live in the daemon and cross-process
	// commit races resolve exactly like in-process ones. If the daemon
	// becomes unreachable the fleet degrades permanently to a cold
	// process-local store (journaled as a fleet-level "store-degraded"
	// event and surfaced in the snapshot) rather than blocking sessions.
	// Because the daemon owns its own durability, the fleet's WAL stops
	// snapshotting store contents and Recover stops re-importing them.
	// Ignored when Store is set or DisableStore is on; empty (the zero
	// value) keeps the in-process store byte-identical to before.
	StoreAddr string
	// Translate enables the cross-machine seeding tier: a session whose
	// store lookup misses may warm-start from a sibling entry for the same
	// (bench, input) on another machine, reusing the sibling's candidate
	// sites with its distance scaled by the machines' effective
	// memory-latency ratio (TranslateDistance). Translated sessions search
	// with the cold ±5 span and skip the warm fast-path accept. Off by
	// default: translation adds journal events, and existing runs'
	// byte-determinism must hold.
	Translate bool

	// --- Admission & resilience knobs (internal/admission). The zero
	// value of every knob reproduces the original FIFO fleet exactly. ---

	// Quota bounds concurrent in-flight sessions per (bench, input) so
	// one workload cannot monopolise the worker pool (0 = unlimited).
	Quota int
	// TenantQuota bounds concurrent in-flight sessions per tenant (0 =
	// unlimited; untenanted sessions are exempt), so one submitter cannot
	// monopolise the pool by spreading over many workloads.
	TenantQuota int
	// MaxQueue bounds the total number of waiting sessions: Submit
	// returns an *OverloadError (429 through the daemon) instead of
	// growing the queue past it (0 = unbounded, the pre-daemon
	// behavior). Recovery re-admissions and retry-lane re-entries are
	// exempt — backpressure sheds new work, never committed work.
	MaxQueue int
	// MaxTenantQueue bounds one tenant's waiting sessions the same way
	// (0 = unbounded; untenanted sessions are exempt).
	MaxTenantQueue int
	// MaxRetries re-admits Failed and RolledBack sessions as cold
	// re-profile attempts, up to this many times per session (0 = retry
	// lane disabled). Retried attempts derive a fresh deterministic seed
	// from (Spec.Seed, attempt) and bypass the profile store. Attempt n
	// waits 0.5·2^(n-1) virtual seconds, capped at 8 (admission's
	// defaults): backoff consumes the scheduler's deterministic virtual
	// clock, never wall time.
	MaxRetries int
	// BreakerThreshold trips a per-(bench, input) circuit breaker after
	// this many consecutive rollbacks; further optimize sessions on that
	// key are parked in the Degraded outcome instead of burning probes
	// (0 = breaker disabled). A tripped breaker stays open 16 virtual
	// seconds before admitting one half-open recovery trial.
	BreakerThreshold int
	// Faults, when non-nil, injects deterministic failures at the
	// controller's profile/rewrite/OSR boundaries — the test harness for
	// the retry and breaker machinery.
	Faults *faults.Injector

	// --- Continuous re-tuning knobs (internal/drift). WatchdogInterval 0
	// (the zero value) disables the watchdog entirely: no post-activation
	// sampling, no drift events, and journals, metrics, and WAL files stay
	// byte-identical to a fleet without the subsystem. ---

	// WatchdogInterval arms the phase-drift watchdog: after a tuned
	// optimize session activates, the fleet keeps the target attached
	// through its run budget and samples the miss-site retirement rate
	// every this many simulated seconds, over a measured window of 0.2 s
	// (the sampler's whole overhead). A session whose smoothed rate
	// sustains a drop of more than 25 % versus the rate recorded at
	// activation is re-admitted into the admission queue's re-tune lane.
	WatchdogInterval float64
	// WatchdogHysteresis is how many consecutive degraded samples fire the
	// watchdog (default 3); one good sample resets the count.
	WatchdogHysteresis int
	// MaxRetunes bounds re-tune lane admissions per session (default 1
	// when the watchdog is armed). The lane is distinct from MaxRetries:
	// it re-admits *successful* sessions whose tuned distance went stale,
	// seeds the next search from the current distance instead of cold, and
	// never consumes (or is consumed by) the retry budget. A scheduled
	// re-tune dispatches after a fixed 0.5 virtual seconds; unlike retry
	// backoff the delay does not grow: a re-tune is expected maintenance,
	// not a suspect failure.
	MaxRetunes int
	// RetuneCold makes re-tunes restart the distance search from a random
	// initial distance instead of warm-seeding from the drifted session's
	// installed distance — the ablation baseline TableDrift compares the
	// warm lane against.
	RetuneCold bool

	// --- Persistence knobs (internal/wal). StateDir empty (the zero
	// value) keeps the fleet purely in-memory, byte-identical to the
	// pre-WAL fleet. ---

	// StateDir, when set, makes the fleet crash-safe: every journal event
	// is teed into an append-only checksummed WAL under this directory and
	// the profile store plus scheduler state snapshot periodically, so
	// Recover can rebuild the fleet after a crash. An unusable directory
	// degrades the fleet to in-memory mode instead of failing it.
	StateDir string
	// Fsync is the WAL durability policy (default wal.SyncInterval: fsync
	// every 64 appends and on close).
	Fsync wal.SyncMode
	// SnapshotEvery is how many store commits trigger a fresh snapshot
	// (default 8).
	SnapshotEvery int
	// Overwrite lets New start a fresh epoch over a state dir whose
	// journal still holds unfinished sessions. Without it, New refuses to
	// destroy recoverable state: the fleet runs degraded (in-memory) with
	// the refusal surfaced in the health snapshot, and the state dir stays
	// exactly as the crash left it for Recover. Recover itself consumes
	// the old state and overwrites implicitly.
	Overwrite bool
	// DiskFaults, when non-nil, injects deterministic disk faults (write,
	// fsync, snapshot-write errors) into the persistence layer — the chaos
	// knob that exercises the degrade/re-arm arc on demand. Decisions are
	// pure hashes of (injector seed, file key, operation ordinal), so the
	// same faults fire at the same operations regardless of worker count.
	DiskFaults *faults.DiskInjector
	// RearmBackoff is how many journal events a degraded persister waits
	// before attempting to re-arm (snapshot live state into a fresh epoch
	// and resume the WAL). 0 means the default (64); negative disables
	// re-arming, restoring the old "first disk error degrades forever"
	// behavior. The clock is journal events, not wall time: deterministic
	// in tests, and an idle fleet never churns a disk it just failed on.
	// Each failed attempt doubles the wait, up to 8x RearmBackoff.
	RearmBackoff int
}

// Fixed policy values (RPG²'s pitch is that the operator tunes nothing).
const (
	// warmProfileSeconds is the shortened PEBS window for store-seeded
	// sessions (the cold default is the paper's 2 s).
	warmProfileSeconds = 0.5
	// regressTolerance is the relative miss-site retirement-rate
	// regression, versus the rate the store entry promised, beyond which a
	// warm session invalidates the entry.
	regressTolerance = 0.25
	// watchdogWindow is the measured window per watchdog sample in
	// simulated seconds — the sampler's whole overhead.
	watchdogWindow = 0.2
)

func (c Config) defaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RunSeconds == 0 {
		c.RunSeconds = 2
	}
	if c.Builds == nil {
		c.Builds = workloads.SharedCache()
	}
	if c.WatchdogInterval > 0 && c.MaxRetunes == 0 {
		c.MaxRetunes = 1
	}
	return c
}

// ErrClosed is the typed error Submit returns after Close (the facade
// exports it as ErrFleetClosed). Use errors.Is to test for it.
var ErrClosed = errors.New("fleet: closed to new sessions")

// ErrOverloaded is the sentinel every backpressure rejection matches via
// errors.Is; the concrete error is an *OverloadError carrying which cap
// tripped.
var ErrOverloaded = errors.New("fleet: queue overloaded")

// OverloadError is Submit's backpressure rejection: the queue (global or
// one tenant's share) is at its configured cap. The daemon maps it to
// HTTP 429 with a Retry-After derived from current throughput.
type OverloadError struct {
	// Scope is "global" or "tenant".
	Scope string
	// Tenant is the rejected tenant (empty for global rejections).
	Tenant string
	// Depth is the waiting-session count that tripped the cap.
	Depth int
	// Cap is the configured ceiling that was hit.
	Cap int
}

func (e *OverloadError) Error() string {
	if e.Scope == "tenant" {
		return fmt.Sprintf("fleet: queue overloaded: tenant %q has %d sessions waiting (cap %d)",
			e.Tenant, e.Depth, e.Cap)
	}
	return fmt.Sprintf("fleet: queue overloaded: %d sessions waiting (cap %d)", e.Depth, e.Cap)
}

// Is makes errors.Is(err, ErrOverloaded) match any overload rejection.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Fleet is the long-lived service: submit sessions, drain, snapshot.
type Fleet struct {
	cfg     Config
	store   Store
	journal *Journal
	metrics *metrics
	persist *persister // nil when StateDir is unset: pure in-memory

	mu        sync.Mutex
	cond      *sync.Cond
	sched     *admission.Queue
	inflight  int
	nextID    int
	queuePeak int
	closed    bool
	sessions  []*Session

	workers sync.WaitGroup
	// snapMu serializes persistSnapshot: state capture and the atomic
	// snapshot replace happen one at a time, so concurrent workers never
	// interleave writes through the snapshot's shared temp file.
	snapMu sync.Mutex

	// Remote-store degrade state (Config.StoreAddr): the client fires
	// OnDegrade exactly once; the error lands before the flag flips so
	// Snapshot never reads a degraded status with no cause.
	storeDegraded atomic.Bool
	storeErr      atomic.Pointer[string]
}

// New starts a fleet: the worker pool is live immediately and sessions run
// as they are submitted. Call Close when done admitting.
func New(cfg Config) *Fleet {
	f := newFleet(cfg)
	f.initPersist()
	f.commitPersist()
	f.startWorkers()
	return f
}

// newFleet builds the fleet's in-memory core: store, journal, scheduler.
// No workers run yet and no state is on disk — Recover uses this window to
// restore recovered state before persistence and dispatch start.
func newFleet(cfg Config) *Fleet {
	cfg = cfg.defaults()
	f := &Fleet{
		cfg:     cfg,
		store:   cfg.Store,
		journal: NewJournal(),
		metrics: newMetrics(),
		sched: admission.NewQueue(admission.Config{
			Quota:            cfg.Quota,
			TenantQuota:      cfg.TenantQuota,
			MaxRetries:       cfg.MaxRetries,
			MaxRetunes:       cfg.MaxRetunes,
			BreakerThreshold: cfg.BreakerThreshold,
		}),
	}
	if f.store == nil && !cfg.DisableStore {
		if cfg.StoreAddr != "" {
			// Shared out-of-process store. The client's fallback is the same
			// default Memory store as the in-process arm below, so a degraded
			// fleet behaves exactly like one that was never pointed at a
			// daemon — just cold.
			f.store = remote.New(remote.Config{
				BaseURL: cfg.StoreAddr,
				OnDegrade: func(err error) {
					msg := err.Error()
					f.storeErr.Store(&msg)
					f.storeDegraded.Store(true)
					f.journal.add(Event{Session: -1, Type: "store-degraded", Reason: cfg.StoreAddr, Err: msg})
				},
			})
		} else {
			f.store = NewStore(StoreConfig{})
		}
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

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

// startWorkers brings the dispatch pool up.
func (f *Fleet) startWorkers() {
	for i := 0; i < f.cfg.Workers; i++ {
		f.workers.Add(1)
		go f.worker()
	}
}

// Store returns the fleet's profile store (nil when disabled).
func (f *Fleet) Store() Store {
	if f.cfg.DisableStore {
		return nil
	}
	return f.store
}

// Journal returns the fleet's event journal.
func (f *Fleet) Journal() *Journal { return f.journal }

// Sessions returns every admitted session in admission order.
func (f *Fleet) Sessions() []*Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Session, len(f.sessions))
	copy(out, f.sessions)
	return out
}

// Submit admits one session to the queue and returns its handle. After
// Close it returns ErrClosed; when a queue-depth cap (Config.MaxQueue,
// MaxTenantQueue) is hit it returns an *OverloadError (errors.Is
// ErrOverloaded) and admits nothing.
func (f *Fleet) Submit(spec SessionSpec) (*Session, error) {
	return f.submit(spec, 0, true)
}

// submitRecovered re-admits a session recovered from the WAL as the given
// attempt; the attempt machinery makes a crash-interrupted attempt re-run
// cold with a derived seed, exactly like a retried failure. Recovery
// bypasses backpressure: this work was already admitted once, shedding it
// now would turn a crash into data loss.
func (f *Fleet) submitRecovered(spec SessionSpec, attempt int) *Session {
	s, _ := f.submit(spec, attempt, false)
	return s
}

func (f *Fleet) submit(spec SessionSpec, attempt int, enforceCaps bool) (*Session, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if enforceCaps {
		if n := f.sched.Len(); f.cfg.MaxQueue > 0 && n >= f.cfg.MaxQueue {
			f.mu.Unlock()
			return nil, &OverloadError{Scope: "global", Depth: n, Cap: f.cfg.MaxQueue}
		}
		if t := spec.Tenant; t != "" && f.cfg.MaxTenantQueue > 0 {
			if n := f.sched.TenantDepth(t); n >= f.cfg.MaxTenantQueue {
				f.mu.Unlock()
				return nil, &OverloadError{Scope: "tenant", Tenant: t, Depth: n, Cap: f.cfg.MaxTenantQueue}
			}
		}
	}
	s := &Session{ID: f.nextID, Spec: spec, state: Queued, attempt: attempt}
	s.machineName = f.cfg.Machine.Name
	if spec.Machine != nil {
		s.machineName = spec.Machine.Name
	}
	s.item = &admission.Item{
		ID:        s.ID,
		Key:       admission.Key{Bench: spec.Bench, Input: spec.Input},
		Priority:  spec.Priority,
		Breakable: spec.Kind == OptimizeJob,
		Payload:   s,
		Attempt:   attempt,
		Tenant:    spec.Tenant,
	}
	f.nextID++
	f.sched.Push(s.item)
	f.sessions = append(f.sessions, s)
	if n := f.sched.Len(); n > f.queuePeak {
		f.queuePeak = n
	}
	f.mu.Unlock()

	f.metrics.submit()
	ev := Event{
		Session: s.ID, Type: "queued", Kind: spec.Kind.String(),
		Bench: spec.Bench, Input: spec.Input, Machine: s.machineName,
		State: Queued.String(), Priority: spec.Priority, Attempt: attempt,
		Tenant: spec.Tenant,
	}
	if f.persist != nil {
		// The replayable spec rides the WAL so recovery can re-admit this
		// session if it never finishes; in-memory journals skip it to stay
		// byte-identical to the pre-WAL fleet.
		ev.Spec = RecordSpec(spec)
	}
	f.journal.add(ev)
	f.cond.Broadcast()
	return s, nil
}

// Drain blocks until every admitted session has reached a terminal state
// (including pending retry-lane re-admissions). It is safe to call
// repeatedly and after Close.
func (f *Fleet) Drain() {
	f.mu.Lock()
	for !f.sched.Empty() || f.inflight > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Close stops admission, drains the queue (including the retry lane), and
// stops the workers. When persisting, it then writes a final snapshot and
// flushes and closes the WAL, so a cleanly closed state dir resumes
// without replaying anything. Close is idempotent: repeated or concurrent
// calls all block until the pool has shut down.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.workers.Wait()
	if f.persist != nil {
		f.persistSnapshot()
		f.persist.close()
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
// newer on top of it is idempotent.
func (f *Fleet) persistSnapshot() {
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	w := f.persist.watermark()
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

// CancelQueued fails every session still waiting in the queue or retry
// lane with ErrCanceled, leaving in-flight sessions to finish; it returns
// the number cancelled. This is the graceful-shutdown path: cancel, drain
// the in-flight remainder, then snapshot.
func (f *Fleet) CancelQueued() int {
	n := 0
	for {
		f.mu.Lock()
		it, ok := f.sched.Evict()
		f.mu.Unlock()
		if !ok {
			break
		}
		s := it.Payload.(*Session)
		f.settle(s, Failed, 0, func() { s.err = ErrCanceled })
		f.metrics.fail(0)
		ev := s.event("session-failed")
		ev.State, ev.Attempt, ev.Err = Failed.String(), it.Attempt, ErrCanceled.Error()
		f.journal.add(ev)
		n++
	}
	f.cond.Broadcast()
	return n
}

// ErrCanceled marks sessions failed by CancelQueued before they ran.
var ErrCanceled = errors.New("fleet: session cancelled before dispatch")

// DegradeQueued parks one still-queued session as Degraded and returns
// whether it found it waiting. It is the daemon's panic-recovery path: a
// handler that panicked mid-submit leaves a session whose client may never
// learn its ID, so the safe disposition is a terminal parked state rather
// than silently running work nobody can claim. Sessions already dispatched
// are left alone (they finish normally).
func (f *Fleet) DegradeQueued(id int) bool {
	f.mu.Lock()
	it, ok := f.sched.EvictWhere(func(payload any) bool {
		s, isSession := payload.(*Session)
		return isSession && s.ID == id
	})
	f.mu.Unlock()
	if !ok {
		return false
	}
	s := it.Payload.(*Session)
	f.transition(s, Degraded, 0)
	f.metrics.degrade(0)
	ev := s.event("session-degraded")
	ev.State, ev.Attempt = Degraded.String(), it.Attempt
	f.journal.add(ev)
	f.cond.Broadcast()
	return true
}

// RecordPanic journals a recovered daemon handler panic as a fleet-level
// event, so the incident is durable (and replay-safe: recovery ignores
// fleet-level event types it does not know).
func (f *Fleet) RecordPanic(route, msg string) {
	f.journal.add(Event{Session: -1, Type: "handler-panic", Reason: route, Err: msg})
	f.metrics.panicked()
}

// Run is the batch convenience: submit all specs, drain, return the
// sessions. The fleet stays open for more work afterwards.
func (f *Fleet) Run(specs []SessionSpec) ([]*Session, error) {
	out := make([]*Session, 0, len(specs))
	for _, spec := range specs {
		s, err := f.Submit(spec)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	f.Drain()
	return out, nil
}

// Snapshot freezes the fleet-wide metrics.
func (f *Fleet) Snapshot() Snapshot {
	f.mu.Lock()
	workers, peak := f.cfg.Workers, f.queuePeak
	depth := f.sched.Len()
	tenants := f.sched.TenantDepths()
	sched := f.sched.Stats()
	open := f.sched.OpenBreakers()
	breakers := f.sched.Breakers()
	f.mu.Unlock()
	var st Store
	if !f.cfg.DisableStore {
		st = f.store
	}
	snap := f.metrics.snapshot(st, f.cfg.Builds, workers, peak, depth, tenants, sched, open, breakers)
	if f.persist != nil {
		f.persist.health(&snap)
	}
	if f.cfg.StoreAddr != "" && !f.cfg.DisableStore {
		snap.RemoteStore = "active"
		if f.storeDegraded.Load() {
			snap.RemoteStore = "degraded"
			if msg := f.storeErr.Load(); msg != nil {
				snap.RemoteStoreError = *msg
			}
		}
	}
	return snap
}

// Builds returns the fleet's workload build cache.
func (f *Fleet) Builds() *workloads.BuildCache { return f.cfg.Builds }

// Machine returns the fleet's default machine (the one sessions run on
// when their spec does not override it).
func (f *Fleet) Machine() machine.Machine { return f.cfg.Machine }

// worker pulls dispatch decisions from the admission scheduler until the
// fleet is closed and fully drained. A false Pop means everything waiting
// is quota-blocked (or nothing is waiting): the worker sleeps until a
// completion or submission changes the picture.
func (f *Fleet) worker() {
	defer f.workers.Done()
	for {
		f.mu.Lock()
		var dec admission.Decision
		for {
			var ok bool
			if dec, ok = f.sched.Pop(); ok {
				break
			}
			if f.closed && f.sched.Empty() && f.inflight == 0 {
				f.mu.Unlock()
				f.cond.Broadcast()
				return
			}
			f.cond.Wait()
		}
		f.inflight++
		f.mu.Unlock()

		s := dec.Item.Payload.(*Session)
		ev := s.event("admitted")
		ev.Attempt, ev.Priority, ev.Wait = dec.Item.Attempt, s.Spec.Priority, dec.Waited
		f.journal.add(ev)
		if dec.Parked {
			f.parkSession(s)
		} else {
			f.runSession(s)
		}
		f.tendPersist()

		f.mu.Lock()
		f.sched.ReleaseItem(dec.Item)
		f.inflight--
		f.mu.Unlock()
		f.cond.Broadcast()
	}
}

// parkSession terminates a session the circuit breaker refused to run. A
// parked session never dispatches, so its wall time is exactly zero by
// definition — no wall-clock read, so the parked path stays as
// deterministic as the virtual-clock scheduling that parked it. (The
// other time.Now uses in this package — journal Wall stamps, session wall
// latencies, SessionsPerSec — are observability-only wall metrics;
// admission, retry, and breaker decisions all run on the scheduler's
// virtual clock, and the byte-identity CI checks strip wall fields.)
func (f *Fleet) parkSession(s *Session) {
	f.settle(s, Degraded, 0, func() { s.wall = 0 })
	f.metrics.degrade(s.Wall())
	ev := s.event("session-degraded")
	ev.State, ev.Attempt = Degraded.String(), s.Attempt()
	f.journal.add(ev)
}

// tryRetryLocked re-admits a Failed or RolledBack session through the
// backoff lane if budget remains, journaling the decision before the
// state edge so the item is never visible to workers in a stale state.
// Caller holds f.mu.
func (f *Fleet) tryRetryLocked(s *Session) bool {
	backoff, due, ok := f.sched.Retry(s.item)
	if !ok {
		return false
	}
	ev := s.event("retry-scheduled")
	ev.Attempt, ev.Backoff, ev.Due = s.item.Attempt, backoff, due
	f.journal.add(ev)
	f.transition(s, Queued, 0)
	s.mu.Lock()
	s.attempt = s.item.Attempt
	s.mu.Unlock()
	f.metrics.retry()
	if n := f.sched.Len(); n > f.queuePeak {
		f.queuePeak = n
	}
	return true
}

// reportBreakerLocked feeds an optimize attempt's outcome to its key's
// breaker and journals any trip or recovery. Caller holds f.mu.
func (f *Fleet) reportBreakerLocked(s *Session, o admission.Outcome) {
	opened, closed := f.sched.Report(s.item.Key, o)
	if opened {
		f.journal.add(Event{
			Session: s.ID, Type: "breaker-open",
			Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: s.MachineName(),
		})
	}
	if closed {
		f.journal.add(Event{
			Session: s.ID, Type: "breaker-closed",
			Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: s.MachineName(),
		})
	}
}

// transition moves a session along the state machine, journaling the edge.
// An illegal edge is a controller bug; it panics rather than silently
// corrupting the lifecycle invariants the tests assert on.
func (f *Fleet) transition(s *Session, next State, at float64) {
	f.settle(s, next, at, nil)
}

// settle is transition with the edge's outcome attached: outcome (when
// non-nil) stores the session's result fields — report, error, wall time —
// inside the same s.mu hold that flips the state. A poller that observes a
// terminal state therefore also observes its outcome. Flipping first and
// storing afterwards left the journal append (an fsync under fsync-always)
// between the two, so a concurrent result fetch could return a terminal
// session with no report.
func (f *Fleet) settle(s *Session, next State, at float64, outcome func()) {
	s.mu.Lock()
	if outcome != nil {
		outcome()
	}
	cur := s.state
	if cur == next {
		s.mu.Unlock()
		return
	}
	ok := false
	for _, t := range legalNext[cur] {
		if t == next {
			ok = true
			break
		}
	}
	if !ok {
		s.mu.Unlock()
		panic(fmt.Sprintf("fleet: illegal transition %v -> %v (session %d)", cur, next, s.ID))
	}
	s.state = next
	s.mu.Unlock()
	f.journal.add(Event{
		Session: s.ID, Type: "state", State: next.String(), At: at,
		Bench: s.Spec.Bench, Input: s.Spec.Input,
	})
}

func (f *Fleet) failSession(s *Session, started time.Time, err error) {
	f.settle(s, Failed, 0, func() {
		s.err = err
		s.wall = time.Since(started)
	})
	ev := s.event("session-failed")
	ev.State, ev.Attempt, ev.Err = Failed.String(), s.Attempt(), err.Error()
	f.journal.add(ev)
	f.mu.Lock()
	if s.item.Breakable {
		f.reportBreakerLocked(s, admission.Failure)
	}
	retried := f.tryRetryLocked(s)
	f.mu.Unlock()
	if !retried {
		f.metrics.fail(s.Wall())
	}
}

// machineFor resolves a session's effective machine.
func (f *Fleet) machineFor(s *Session) machine.Machine {
	if s.Spec.Machine != nil {
		return *s.Spec.Machine
	}
	return f.cfg.Machine
}

// runSeconds resolves a session's end-of-run clock budget; ok is false
// when the spec opted out of the post-optimization run.
func (f *Fleet) runSeconds(s *Session) (float64, bool) {
	run := s.Spec.RunSeconds
	if run == 0 {
		run = f.cfg.RunSeconds
	}
	return run, run > 0
}

// retrySeedStride separates consecutive attempts' controller seeds; any
// large odd constant works, it only has to be deterministic.
const retrySeedStride = 1_000_003

// retuneSeedStride separates re-tune passes' controller seeds the same
// way, on an axis independent of the retry attempt's.
const retuneSeedStride = 7_368_787

// runSession dispatches one admitted session to its kind's runner.
func (f *Fleet) runSession(s *Session) {
	started := time.Now()
	s.mu.Lock()
	s.err = nil // a retry attempt supersedes the previous attempt's error
	s.mu.Unlock()
	m := f.machineFor(s)
	switch s.Spec.Kind {
	case BaselineJob:
		f.runAux(s, started, m, f.baselineJob)
	case StaticJob:
		f.runAux(s, started, m, f.staticJob)
	case SweepJob:
		f.runAux(s, started, m, sweepJob)
	case ProfileJob:
		f.runAux(s, started, m, profileJob)
	case APTGETJob:
		f.runAux(s, started, m, aptgetJob)
	default:
		if s.Retuning() {
			f.runRetune(s, started, m)
			return
		}
		f.runOptimize(s, started, m)
	}
}

// runOptimize drives one optimize session end to end: store lookup (unless
// cold), launch from the build cache, optimize under the phase hook,
// post-run, store policy, terminal bookkeeping.
func (f *Fleet) runOptimize(s *Session, started time.Time, m machine.Machine) {
	// The store key uses the session's *effective* machine: a distance
	// tuned on one microarchitecture transplants badly to another
	// (Figure 3), so the same bench on two machines must never
	// cross-seed.
	key := Key{Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name}

	cfg := f.cfg.Session
	if s.Spec.Config != nil {
		cfg = *s.Spec.Config
	}
	attempt := s.Attempt()
	// A session re-dispatched through the re-tune lane whose live target
	// died with a previous process (crash recovery) falls back to a full
	// re-optimize here, still under the lane's discipline: store bypassed,
	// search warm-seeded from the persisted distance.
	retuning := s.Retuning()
	granted := 0
	if retuning {
		f.mu.Lock()
		granted = s.item.Retune
		f.mu.Unlock()
	}
	// Each retry attempt derives a fresh deterministic seed so a rolled-
	// back search does not replay the same random starting distance;
	// re-tune passes stride on an independent axis.
	cfg.Seed = s.Spec.Seed + int64(attempt)*retrySeedStride + int64(granted)*retuneSeedStride
	if f.cfg.Faults != nil {
		userFault := cfg.FaultHook
		injected := f.cfg.Faults.Hook(s.Spec.Seed, attempt)
		cfg.FaultHook = func(stage string) error {
			if userFault != nil {
				if err := userFault(stage); err != nil {
					return err
				}
			}
			return injected(stage)
		}
	}

	// Retry attempts run cold by design: the cached profile (or the luck
	// of the first attempt) is suspect, so they re-profile from scratch.
	// Re-tune fallbacks run cold too: the lane never touches the store.
	cold := s.Spec.Cold || f.cfg.DisableStore || attempt > 0 || retuning
	var seed Entry
	var seedGen uint64
	var seedKey Key
	warm := false
	translated := false
	if cold {
		// A bypassed store is still demand on the store: journal why this
		// session never asked, so snapshot accounting sees every optimize
		// attempt make exactly one store disposition.
		reason := "cold"
		switch {
		case retuning:
			reason = "retune"
		case attempt > 0:
			reason = "retry"
		case f.cfg.DisableStore:
			reason = "disabled"
		}
		f.metrics.bypass(reason)
		f.journal.add(Event{
			Session: s.ID, Type: "store-bypass", Reason: reason,
			Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
			Attempt: attempt, Retune: granted,
		})
	} else {
		if e, gen, ok := f.store.Lookup(key); ok {
			warm, seed, seedGen, seedKey = true, e, gen, key
			cfg.SeedFunc = e.Func
			cfg.SeedCandidates = e.Candidates
			cfg.SeedDistance = e.Distance
			cfg.ProfileSeconds = warmProfileSeconds
		} else if f.cfg.Translate {
			// Third tier: no profile for this machine, but a sibling
			// machine's profile for the same workload can seed a
			// hypothesis — its candidates as-is, its distance scaled by
			// the memory-latency ratio. The search validates the
			// hypothesis with the full cold span (Config.SeedTranslated).
			if e, src, gen, ok := f.store.LookupTranslated(key); ok {
				if sm, known := machine.ByName(src.Machine); !known {
					// A sibling from a machine this build cannot model
					// (e.g. a foreign snapshot) is unusable: return the
					// reuse charge and fall through to a cold start.
					f.store.Refund(src, gen)
				} else {
					translated = true
					seed, seedGen, seedKey = e, gen, src
					cfg.SeedFunc = e.Func
					cfg.SeedCandidates = e.Candidates
					cfg.SeedDistance = TranslateDistance(sm, m, e.Distance,
						cfg.Defaults().MaxDistance)
					cfg.SeedTranslated = true
					cfg.ProfileSeconds = warmProfileSeconds
				}
			}
		}
		switch {
		case warm:
			f.journal.add(Event{
				Session: s.ID, Type: "store-hit", Warm: true,
				Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
			})
		case translated:
			f.journal.add(Event{
				Session: s.ID, Type: "store-translated", Translated: true,
				Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
				Source: seedKey.Machine, Distance: cfg.SeedDistance,
			})
		default:
			f.journal.add(Event{
				Session: s.ID, Type: "store-miss",
				Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
			})
		}
	}
	if retuning && !f.cfg.RetuneCold {
		// The lane's warm seed: re-enter the search from the distance the
		// drifted session had installed, with the warm ±2 gradient span.
		s.mu.Lock()
		if s.retuneDistance > 0 {
			cfg.SeedDistance = s.retuneDistance
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.warm = warm
	s.translated = translated
	s.mu.Unlock()

	// A seeded session that dies before the controller runs consumed the
	// entry's reuse budget for nothing — refund it, or transient build
	// failures would stale a good profile.
	refundSeed := func() {
		if warm || translated {
			f.store.Refund(seedKey, seedGen)
		}
	}
	w, err := f.cfg.Builds.Build(s.Spec.Bench, s.Spec.Input, 1<<30)
	if err != nil {
		refundSeed()
		f.failSession(s, started, err)
		return
	}
	sess, err := rpgcore.NewSession(m, w)
	if err != nil {
		refundSeed()
		f.failSession(s, started, err)
		return
	}

	userPhase := cfg.OnPhase
	cfg.OnPhase = func(name string, at float64) {
		if userPhase != nil {
			userPhase(name, at)
		}
		switch name {
		case "profile":
			f.transition(s, Profiling, at)
		case "rewrite", "insert":
			f.transition(s, Rewriting, at)
		case "tune":
			f.transition(s, Tuning, at)
		}
	}
	rep, err := sess.Optimize(cfg)
	if err != nil {
		s.mu.Lock()
		s.report = rep
		s.mu.Unlock()
		f.failSession(s, started, err)
		return
	}
	if retuning {
		// The fallback re-optimize closes the crash-recovered re-tune
		// lane pass (journaling retune-complete when it re-activated).
		f.finishRetune(s, rep)
	}
	tier := tierCold
	switch {
	case warm:
		tier = tierWarm
	case translated:
		tier = tierTranslated
	}

	// Let the optimized (or untouched) target run out its budget, as a
	// fleet operator would leave the service attached to a live process.
	// A measured spec (TailSeconds > 0) ends with a trailing window
	// instead; a timeline spec (TailWindows > 0) measures the post-detach
	// windows of Figure 10. An armed watchdog replaces the blind run-out
	// with drift sampling and owns the session's terminal bookkeeping.
	run, wantRun := f.runSeconds(s)
	switch {
	case s.Spec.TailSeconds > 0 && wantRun:
		meas, merr := sess.MeasureToBudget(run, s.Spec.TailSeconds)
		if merr != nil {
			s.mu.Lock()
			s.report = rep
			s.mu.Unlock()
			f.failSession(s, started, merr)
			return
		}
		s.mu.Lock()
		s.meas = &meas
		s.mu.Unlock()
	case s.Spec.TailWindows > 0:
		base := 0.0
		if n := len(rep.Timeline); n > 0 {
			base = rep.Timeline[n-1].Seconds
		}
		tail := sess.TailTimeline(s.Spec.TailWindows, s.Spec.TailWindowSeconds, base)
		s.mu.Lock()
		s.tail = tail
		s.mu.Unlock()
	case wantRun:
		if f.cfg.WatchdogInterval > 0 && rep.Outcome == rpgcore.Tuned {
			if !cold {
				f.applyStorePolicy(s, key, rep, warm, seed, seedGen)
			}
			f.finishWatched(s, sess, rep, started, run, tier)
			return
		}
		sess.RunOut(run)
	}

	if !cold {
		f.applyStorePolicy(s, key, rep, warm, seed, seedGen)
	}

	final := Done
	if rep.Outcome == rpgcore.RolledBack {
		final = RolledBack
	}
	f.settle(s, final, rep.Costs.ExecSeconds, func() {
		s.report = rep
		s.wall = time.Since(started)
	})

	// Resilience policy: every optimize outcome feeds the key's breaker,
	// and a rolled-back attempt may re-enter through the retry lane — in
	// which case the terminal record belongs to a later attempt.
	f.mu.Lock()
	if final == Done {
		f.reportBreakerLocked(s, admission.Success)
	} else {
		f.reportBreakerLocked(s, admission.Rollback)
	}
	retried := false
	if final == RolledBack {
		retried = f.tryRetryLocked(s)
	}
	f.mu.Unlock()
	if retried {
		return
	}

	f.metrics.finish(rep.Outcome.String(), tier, rep.Costs.PDEdits, s.Wall())
	ev := s.event("session-done")
	ev.State, ev.Warm, ev.Translated, ev.Report = final.String(), warm, translated, rep
	ev.Attempt, ev.Retune = s.Attempt(), s.Retunes()
	f.journal.add(ev)
}

// auxResult is what a non-optimize session computes: each kind fills the
// one field its accessor (Measurement, SweepResult, Candidates, Distance)
// serves.
type auxResult struct {
	meas     *rpgcore.Measurement
	sweep    *baselines.Sweep
	cands    []int
	distance int
}

// auxJob is the per-kind part of a non-optimize session: the kind's result
// over the built workload.
type auxJob func(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error)

// runAux runs one non-optimize session: build the workload from the cache,
// run the kind's job, then fail the session or store the result with the
// terminal bookkeeping.
func (f *Fleet) runAux(s *Session, started time.Time, m machine.Machine, job auxJob) {
	w, err := f.cfg.Builds.Build(s.Spec.Bench, s.Spec.Input, 1<<30)
	var r auxResult
	if err == nil {
		r, err = job(s, m, w)
	}
	if err != nil {
		f.failSession(s, started, err)
		return
	}
	f.settle(s, Done, 0, func() {
		s.meas, s.sweep, s.cands, s.distance = r.meas, r.sweep, r.cands, r.distance
		s.wall = time.Since(started)
	})
	f.metrics.finishAux(s.Spec.Kind.String(), s.Wall())
	ev := s.event("session-done")
	ev.State = Done.String()
	f.journal.add(ev)
}

// measure runs sess to the session's run budget and measures the trailing
// window (Spec.TailSeconds, default 1 s).
func (f *Fleet) measure(s *Session, sess *rpgcore.Session) (auxResult, error) {
	run, _ := f.runSeconds(s)
	tail := s.Spec.TailSeconds
	if tail <= 0 {
		tail = 1.0
	}
	meas, err := sess.MeasureToBudget(run, tail)
	return auxResult{meas: &meas}, err
}

// baselineJob measures the unmodified binary to the run budget.
func (f *Fleet) baselineJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	sess, err := rpgcore.NewSession(m, w)
	if err != nil {
		return auxResult{}, err
	}
	return f.measure(s, sess)
}

// staticJob measures a statically prefetched build at Spec.Distance,
// profiling candidates first when the spec does not carry them.
func (f *Fleet) staticJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	cands := s.Spec.Candidates
	if len(cands) == 0 {
		var err error
		if cands, err = baselines.ProfileCandidates(w, m, 2.0); err != nil {
			return auxResult{}, err
		}
	}
	pf, err := baselines.BuildPrefetched(w, cands, s.Spec.Distance)
	if err != nil {
		return auxResult{}, err
	}
	pcs := []int{w.WorkPC}
	if off, ok := pf.RW.BAT.Translate(w.WorkPC); ok {
		pcs = append(pcs, pf.F1Entry+off)
	}
	sess, err := rpgcore.NewSessionBin(m, pf.Bin, w.Setup, pcs)
	if err != nil {
		return auxResult{}, err
	}
	return f.measure(s, sess)
}

// sweepJob runs an offline distance sweep over the cached workload.
func sweepJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	cfg := baselines.DefaultSweep()
	if s.Spec.Sweep != nil {
		cfg = *s.Spec.Sweep
	}
	sw, err := baselines.RunSweepWorkload(w, m, cfg)
	return auxResult{sweep: sw}, err
}

// profileJob collects PEBS candidate sites without optimizing.
func profileJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	secs := s.Spec.ProfileSeconds
	if secs == 0 {
		secs = 2.0
	}
	cands, err := baselines.ProfileCandidates(w, m, secs)
	return auxResult{cands: cands}, err
}

// aptgetJob derives the APT-GET scheme's analytic distance.
func aptgetJob(_ *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	d, err := baselines.APTGETDistanceWorkload(w, m)
	return auxResult{distance: d}, err
}

// applyStorePolicy decides what a finished session teaches the store: a
// cold tuned session commits its profile; a warm tuned session refreshes
// the entry, unless the reused distance regressed the miss-site retirement
// rate the entry promised, in which case it invalidates; a warm rolled-back
// session always invalidates (the cached profile actively hurt).
func (f *Fleet) applyStorePolicy(s *Session, key Key, rep *rpgcore.Report, warm bool, seed Entry, seedGen uint64) {
	if f.cfg.DisableStore {
		return
	}
	switch {
	case rep.Outcome == rpgcore.Tuned && warm:
		if seed.TunedRate > 0 && rep.BestRate < seed.TunedRate*(1-regressTolerance) {
			if f.store.Invalidate(key, seedGen) {
				f.journal.add(f.invalidateEvent(s, key, true))
			}
			return
		}
		entry := f.entryFrom(s, rep, seed.Candidates)
		f.store.Commit(key, entry)
		f.journal.add(f.commitEvent(s, key, entry, true))
	case rep.Outcome == rpgcore.Tuned:
		cands := make([]int, 0, len(rep.Sites))
		for _, site := range rep.Sites {
			cands = append(cands, site.DemandPC)
		}
		entry := f.entryFrom(s, rep, cands)
		f.store.Commit(key, entry)
		f.journal.add(f.commitEvent(s, key, entry, false))
	case rep.Outcome == rpgcore.RolledBack && warm:
		if f.store.Invalidate(key, seedGen) {
			f.journal.add(f.invalidateEvent(s, key, true))
		}
	}
}

// commitEvent builds a "store-commit" journal event. When persisting, the
// event additionally carries the store machine key and the committed entry
// so WAL replay can rebuild the store; in-memory journals omit both to
// stay byte-identical to the pre-WAL fleet.
func (f *Fleet) commitEvent(s *Session, key Key, e Entry, warm bool) Event {
	ev := Event{Session: s.ID, Type: "store-commit",
		Bench: key.Bench, Input: key.Input, Warm: warm}
	if f.persist != nil {
		ev.Machine = key.Machine
		ec := e
		ev.Entry = &ec
	}
	return ev
}

// invalidateEvent builds a "store-invalidate" journal event; the machine
// key rides along only when persisting (replay needs the full store key).
func (f *Fleet) invalidateEvent(s *Session, key Key, warm bool) Event {
	ev := Event{Session: s.ID, Type: "store-invalidate",
		Bench: key.Bench, Input: key.Input, Warm: warm}
	if f.persist != nil {
		ev.Machine = key.Machine
	}
	return ev
}

func (f *Fleet) entryFrom(s *Session, rep *rpgcore.Report, cands []int) Entry {
	return Entry{
		Func:         rep.FuncName,
		Candidates:   cands,
		Distance:     rep.FinalDistance,
		BaselineRate: rep.BaselineRate,
		TunedRate:    rep.BestRate,
		Session:      s.ID,
	}
}
