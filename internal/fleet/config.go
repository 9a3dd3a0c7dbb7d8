package fleet

import (
	"errors"
	"fmt"
	"runtime"

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
	"rpg2/internal/workloads"
)

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
	// one (or a remote client, with StoreAddr). Every fleet has a store.
	Store Store
	// Builds is the workload build cache sessions construct targets
	// from; nil uses the process-wide shared cache.
	Builds *workloads.BuildCache
	// StoreAddr, when set, replaces the in-process store with a client for
	// a shared rpg2-stored daemon at this base URL (e.g.
	// "http://127.0.0.1:8049"), so several fleet processes share one
	// profile store: generations live in the daemon and cross-process
	// commit races resolve exactly like in-process ones. If the daemon
	// becomes unreachable the fleet degrades permanently to a cold
	// process-local store (journaled as a fleet-level "store-degraded"
	// event and surfaced in the snapshot) rather than blocking sessions.
	// Because the daemon owns its own durability, the fleet's WAL stops
	// writing store contents at its heads and Recover stops re-importing
	// them.
	// Ignored when Store is set; empty (the zero value) keeps the
	// in-process store byte-identical to before.
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
	// is teed into an append-only checksummed WAL under this directory,
	// and the WAL rolls periodically to a fresh epoch whose head holds the
	// profile store plus scheduler state, so Recover can rebuild the fleet
	// after a crash. An unusable directory degrades the fleet to in-memory
	// mode instead of failing it.
	StateDir string
	// Fsync is the WAL durability policy (default wal.SyncInterval: fsync
	// every 64 appends and on close).
	Fsync wal.SyncMode
	// SnapshotEvery is how many store commits run between epoch rolls,
	// each of which writes the store and scheduler state at the head of a
	// fresh journal (default 8).
	SnapshotEvery int
	// Overwrite lets New start a fresh epoch over a state dir whose
	// journal still holds unfinished sessions. Without it, New refuses to
	// destroy recoverable state: the fleet runs degraded (in-memory) with
	// the refusal surfaced in the health snapshot, and the state dir stays
	// exactly as the crash left it for Recover. Recover itself consumes
	// the old state and overwrites implicitly.
	Overwrite bool
	// DiskFaults, when non-nil, injects deterministic disk faults (write
	// and fsync errors) into the persistence layer — the chaos
	// knob that exercises the degrade/re-arm arc on demand. Decisions are
	// pure hashes of (injector seed, file key, operation ordinal), so the
	// same faults fire at the same operations regardless of worker count.
	DiskFaults *faults.DiskInjector
	// RearmBackoff is how many journal events a degraded persister waits
	// before attempting to re-arm (roll live state into a fresh epoch and
	// resume the WAL). 0 or less means the default (64). The clock is
	// journal events, not wall time: deterministic in tests, and an idle
	// fleet never churns a disk it just failed on. Each failed attempt
	// doubles the wait, up to 8x RearmBackoff.
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
