// Package rpg2 is the public API of the RPG² reproduction: robust
// profile-guided runtime prefetch generation (ASPLOS 2024) rebuilt, together
// with its entire machine substrate, as a pure-Go simulation.
//
// The library has three layers, all reachable from this facade:
//
//   - A simulated machine: a small ISA, an interpreter core with a
//     cycle-accounting model, a three-level cache hierarchy with a hardware
//     stride prefetcher and a bandwidth-bounded DRAM model, processes with a
//     ptrace-style tracer, and PEBS-style profiling. Two machine
//     configurations mirror the paper's Cascade Lake and Haswell servers.
//   - The RPG² system itself: online profiling, a BOLT-style binary rewriter
//     whose InjectPrefetchPass builds prefetch kernels from backward slices,
//     runtime code injection with on-stack replacement, three-stage prefetch
//     distance tuning, and rollback when prefetching hurts.
//   - The evaluation: the CRONO and AJ benchmarks as simulated programs, the
//     offline/APT-GET/manual baselines, and one runner per table and figure
//     of the paper's evaluation section.
//
// The facade is the single-process library: machines, workloads, the
// controller, sweeps, the experiments harness, and the in-process fleet
// (NewFleet, RecoverFleet and the types they hand back). It is not a
// mirror of the service stack: the daemons, their clients, the remote
// profile store and the disk and network fault injectors are built by the
// binaries under cmd/, which live in this module and import those internal
// packages directly.
//
// Quickstart:
//
//	m := rpg2.CascadeLake()
//	w, _ := rpg2.BuildWorkload("pr", "soc-alpha")
//	p, _ := rpg2.Launch(m, w)
//	report, _ := rpg2.Optimize(m, p, rpg2.Config{Seed: 1})
//	fmt.Println(report.Outcome, report.FinalDistance)
package rpg2

import (
	"rpg2/internal/baselines"
	"rpg2/internal/cpu"
	"rpg2/internal/experiments"
	"rpg2/internal/faults"
	"rpg2/internal/fleet"
	"rpg2/internal/graphs"
	"rpg2/internal/machine"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
	"rpg2/internal/workloads"
)

// Machine is a simulated server configuration.
type Machine = machine.Machine

// CascadeLake returns the simulated Intel Xeon Gold 6230R configuration.
func CascadeLake() Machine { return machine.CascadeLake() }

// Haswell returns the simulated Intel Xeon E5-2618L v3 configuration.
func Haswell() Machine { return machine.Haswell() }

// Machines returns both evaluation machines.
func Machines() []Machine { return machine.Both() }

// MachineByName resolves "cascadelake" or "haswell".
func MachineByName(name string) (Machine, bool) { return machine.ByName(name) }

// Workload is a runnable benchmark: binary plus data setup.
type Workload = workloads.Workload

// Benchmarks lists the available benchmark names (CRONO then AJ).
func Benchmarks() []string { return workloads.AllNames() }

// DriftBenchmarks lists the drifting benchmarks — workloads whose access
// pattern shifts mid-run, the targets of the fleet's phase-drift
// watchdog. They are not in Benchmarks: stock sweeps stay byte-identical;
// callers opt in by name.
func DriftBenchmarks() []string { return workloads.DriftNames() }

// GraphInput describes one catalogue graph input.
type GraphInput = graphs.Input

// GraphInputs returns the SNAP-like input catalogue used by pr, bfs and
// sssp.
func GraphInputs() []GraphInput { return graphs.Catalogue() }

// SyntheticInputs returns the APT-GET-style synthetic inputs (bc's inputs).
func SyntheticInputs() []GraphInput { return graphs.SyntheticCatalogue() }

// BuildWorkload constructs a benchmark. input names a catalogue graph for
// the CRONO benchmarks (pr, bfs, sssp, bc) and must be empty for the AJ
// benchmarks (is, cg, randacc), which carry fixed inputs.
func BuildWorkload(bench, input string) (*Workload, error) {
	return workloads.Build(bench, input, 1<<30)
}

// Process is a running simulated program.
type Process = proc.Process

// Launch starts a workload on a fresh instance of the machine.
func Launch(m Machine, w *Workload) (*Process, error) {
	return m.Launch(w.Bin, w.Setup)
}

// WorkCounter counts retirements of a set of instructions; see WatchWork.
type WorkCounter = cpu.Watch

// WatchWork attaches a work counter over the workload's marked miss-site
// load to a freshly launched process, so throughput can be compared across
// schemes. If RPG² later rewrites the code, it extends the counter across
// the version switch automatically.
func WatchWork(p *Process, w *Workload) *WorkCounter {
	return perf.AttachWatch(p, []int{w.WorkPC})
}

// Config tunes the RPG² controller; the zero value uses the paper's
// defaults (2 s profiling, 0.3 s IPC windows, distances capped at 200).
type Config = rpgcore.Config

// Report is the controller's account of one optimization session.
type Report = rpgcore.Report

// Measurement is a steady-state tail measurement of a running workload:
// retired work, IPC, work rate, LLC MPKI and instructions per unit of work.
type Measurement = rpgcore.Measurement

// Outcome summarises what RPG² did to a target.
type Outcome = rpgcore.Outcome

// Controller outcomes.
const (
	// NotActivated: too little profiling signal; target untouched.
	NotActivated = rpgcore.NotActivated
	// Tuned: prefetching injected and a beneficial distance installed.
	Tuned = rpgcore.Tuned
	// RolledBack: prefetching hurt; execution steered back to f0.
	RolledBack = rpgcore.RolledBack
	// TargetExited: the target finished before optimization completed.
	TargetExited = rpgcore.TargetExited
)

// Optimize attaches RPG² to a running process and drives all four phases:
// profiling, code generation, runtime insertion with on-stack replacement,
// and distance tuning with rollback. The process continues running after
// detach.
func Optimize(m Machine, p *Process, cfg Config) (*Report, error) {
	return rpgcore.New(m, cfg).Optimize(p)
}

// Sweep is an offline distance sweep: per-distance speedup over the
// no-prefetch baseline.
type Sweep = baselines.Sweep

// SweepConfig controls RunSweep.
type SweepConfig = baselines.SweepConfig

// DefaultSweep measures distances 1..100 like the paper's offline scheme.
func DefaultSweep() SweepConfig { return baselines.DefaultSweep() }

// RunSweep measures the steady-state speedup of each candidate prefetch
// distance for a benchmark/input on a machine.
func RunSweep(bench, input string, m Machine, cfg SweepConfig) (*Sweep, error) {
	return baselines.RunSweep(bench, input, m, cfg)
}

// ExperimentOptions configures the evaluation harness scale.
type ExperimentOptions = experiments.Options

// Experiments is the harness that regenerates the paper's tables and
// figures.
type Experiments = experiments.Runner

// DefaultExperiments returns the full-scale harness configuration.
func DefaultExperiments() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperiments returns the scale EXPERIMENTS.md quotes its numbers at
// (`rpg2-experiments -quick`): 8 CRONO and 3 synthetic inputs, 30 s runs, 2
// trials, sweep distances 1..99 in steps of 2.
func QuickExperiments() ExperimentOptions { return experiments.QuickOptions() }

// SmokeExperiments returns the smallest useful configuration: two tiny
// inputs, one trial, short runs. CI uses it to exercise the whole pipeline
// in seconds.
func SmokeExperiments() ExperimentOptions { return experiments.SmokeOptions() }

// NewExperiments builds the harness.
func NewExperiments(opts ExperimentOptions) *Experiments { return experiments.NewRunner(opts) }

// Artefact is one table, figure or study the harness regenerates.
type Artefact = experiments.Artefact

// Artefacts lists every table, figure and study, in `-all` order.
func Artefacts() []Artefact { return experiments.Artefacts() }

// FleetConfig tunes a Fleet; Machine is required, everything else has
// defaults (Workers: GOMAXPROCS).
type FleetConfig = fleet.Config

// Fleet runs RPG² as a long-lived service over many target processes
// concurrently: an admission queue feeds a bounded worker pool, each
// session walks a lifecycle state machine, and a shared profile store
// warm-starts sessions on workloads the fleet has tuned before.
type Fleet = fleet.Fleet

// FleetSession is one tracked optimization within a fleet.
type FleetSession = fleet.Session

// SessionSpec names one unit of fleet work.
type SessionSpec = fleet.SessionSpec

// FleetSnapshot is a point-in-time view of fleet-wide metrics.
type FleetSnapshot = fleet.Snapshot

// FleetEvent is one record on a fleet's journal.
type FleetEvent = fleet.Event

// NewFleet starts a fleet service; its worker pool is live immediately.
// Submit sessions (or batch them with Run), Drain, read Snapshot, Close.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// FleetState is a fleet session's lifecycle state.
type FleetState = fleet.State

// Fleet session lifecycle states. Sessions move Queued → Profiling →
// Rewriting → Tuning and end in one of the four terminal states.
const (
	// SessionQueued: admitted, waiting for a worker (or for a retry's
	// backoff to elapse).
	SessionQueued = fleet.Queued
	// SessionProfiling through SessionTuning track the controller phases.
	SessionProfiling = fleet.Profiling
	SessionRewriting = fleet.Rewriting
	SessionTuning    = fleet.Tuning
	// SessionDone: the controller finished (any rpg2 Outcome, incl. a
	// rollback that exhausted its retry budget).
	SessionDone = fleet.Done
	// SessionRolledBack: prefetching hurt and was rolled back terminally.
	SessionRolledBack = fleet.RolledBack
	// SessionFailed: the session errored (launch failure, injected fault
	// past the retry budget, or cancellation).
	SessionFailed = fleet.Failed
	// SessionDegraded: an open circuit breaker parked the session without
	// running it.
	SessionDegraded = fleet.Degraded
)

// ErrFleetClosed is returned by Fleet.Submit after Close: the pool is
// shutting down and accepts no new work. Test with errors.Is.
var ErrFleetClosed = fleet.ErrClosed

// ErrSessionCanceled marks sessions evicted from the admission queue by
// Fleet.CancelQueued (graceful shutdown) before ever dispatching.
var ErrSessionCanceled = fleet.ErrCanceled

// FsyncPolicy selects the WAL durability policy for a persisted fleet
// (FleetConfig.Fsync).
type FsyncPolicy = wal.SyncMode

// WAL durability policies.
const (
	// FsyncInterval (the default) fsyncs every 64 appends and on close.
	FsyncInterval = wal.SyncInterval
	// FsyncAlways fsyncs every append: maximum durability, one disk round
	// trip per journal event.
	FsyncAlways = wal.SyncAlways
	// FsyncOnClose fsyncs only on close: the OS decides what a crash keeps.
	FsyncOnClose = wal.SyncOnClose
)

// FleetRecovery is Fleet recovery's account of what it rebuilt: salvage
// reports, session accounting, and the re-admitted session handles.
type FleetRecovery = fleet.Recovery

// RecoverFleet rebuilds a crashed (or cleanly closed) fleet from its state
// dir: the profile store, the scheduler's breaker and retry posture, and
// every session that was queued or in flight when the process died — the
// latter re-admitted (an interrupted in-flight attempt re-runs cold with a
// derived seed). The returned fleet is live; Drain it to finish the
// recovered work.
func RecoverFleet(stateDir string, cfg FleetConfig) (*Fleet, *FleetRecovery, error) {
	return fleet.Recover(stateDir, cfg)
}

// FaultStage names an injection boundary inside the controller:
// "profile" (sample collection), "rewrite" (the BOLT pass), or "osr"
// (runtime code insertion / on-stack replacement).
type FaultStage = faults.Stage

// Fault-injection boundaries.
const (
	FaultProfile = faults.StageProfile
	FaultRewrite = faults.StageRewrite
	FaultOSR     = faults.StageOSR
)

// FaultConfig seeds a deterministic fault injector.
type FaultConfig = faults.Config

// FaultInjector decides, purely from (seed, session, attempt, stage),
// whether a controller stage fails. Plug one into FleetConfig.Faults to
// exercise the fleet's retry lane and circuit breakers reproducibly.
type FaultInjector = faults.Injector

// NewFaultInjector builds an injector from a seeded config.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faults.New(cfg) }

// IsInjectedFault reports whether an error (e.g. FleetSession.Err) was
// manufactured by a fault injector rather than arising organically.
func IsInjectedFault(err error) bool { return faults.Injected(err) }
