package fleet

import (
	"fmt"
	"sync"
	"time"

	"rpg2/internal/admission"
	"rpg2/internal/baselines"
	"rpg2/internal/drift"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
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
	// journal holds the session's lifecycle: State, Attempt, Warm,
	// Translated, Retunes and Retuning read its fold.
	journal *Journal
	// finished is closed once the session's last terminal record is
	// journaled (see Finished).
	finished chan struct{}

	mu          sync.Mutex
	machineName string
	report      *rpgcore.Report
	meas        *rpgcore.Measurement
	sweep       *baselines.Sweep
	cands       []int
	distance    int
	tail        []rpgcore.TimelinePoint
	err         error
	wall        time.Duration

	// Drift-watchdog handles (nil unless Config.WatchdogInterval armed the
	// watchdog for this session; the re-tune lane's posture is the fold's).
	// live is the in-process core session retained past Done so the
	// watchdog can keep sampling and a re-tune can re-enter the search
	// against the still-injected kernel; det is the session's degradation
	// detector; recoveredDet is a crash-recovered detector posture to
	// resume; windowMark is the detector sample count when the current
	// watch episode was armed.
	live         *rpgcore.Session
	det          *drift.Detector
	recoveredDet *drift.State
	windowMark   int
}

// State returns the session's current lifecycle state: the one its journal
// records put it in.
func (s *Session) State() State {
	name := s.view().State
	for st := Queued; st <= Degraded; st++ {
		if st.String() == name {
			return st
		}
	}
	return Queued // no record names a state yet: the queued record is in flight
}

// view is the session as its journal records tell it.
func (s *Session) view() SessionView {
	v, _ := s.journal.View(s.ID)
	return v
}

// Finished is closed once the session's last record — the session-done,
// session-failed or session-degraded of the attempt nothing re-admits — has
// been journaled, and under fsync-always committed. State().Terminal() says
// an attempt ended; it is true a moment before that attempt's record is
// written, and also for a failed or rolled-back attempt the retry lane is
// about to take back. Whoever reports an outcome outside the process waits
// for Finished.
func (s *Session) Finished() <-chan struct{} { return s.finished }

// Attempt returns the session's current attempt index: 0 for the first
// admission, incremented by each retry-lane re-admission.
func (s *Session) Attempt() int { return s.view().Attempt }

// Retunes returns how many re-tune lane passes the session completed
// (0 for a session the watchdog never re-admitted).
func (s *Session) Retunes() int { return s.view().Retunes }

// Retuning reports whether the session holds a re-tune grant whose pass has
// not ended: queued, its dispatch re-enters the distance search.
func (s *Session) Retuning() bool { return s.view().Retuning }

// Warm reports whether the session was seeded from the profile store.
func (s *Session) Warm() bool { return s.view().Warm }

// Translated reports whether the session was seeded from a sibling
// machine's profile through the translation layer (never true together
// with Warm).
func (s *Session) Translated() bool { return s.view().Translated }

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
