// Package rpg2 implements the paper's contribution: the RPG² controller for
// online prefetch injection and tuning. It attaches to a running process
// and proceeds through four phases (§3):
//
//  1. Profiling: sample LLC misses with PEBS-style hardware profiling and
//     establish the baseline IPC.
//  2. Code analysis & generation: run the BOLT InjectPrefetchPass over the
//     hottest function to produce an optimized function f1 with prefetch
//     kernels and a BAT.
//  3. Runtime code insertion: inject f1 into the target's address space via
//     the libpg2 agent, patch call sites, and perform on-stack replacement
//     of thread PCs (and f0 return addresses) using the BAT.
//  4. Monitoring & tuning: search prefetch distances with a three-stage
//     algorithm (gradient probe, doubling, binary search), editing the
//     distance immediates in live code; if no distance beats the baseline,
//     roll back to f0.
//
// Everything except the brief stop-the-world operations happens while the
// target continues to run, and the stop-the-world costs are charged to the
// target's clock through the tracer cost model, so the controller's
// operation-latency report regenerates the paper's Table 2.
package rpg2

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"rpg2/internal/bolt"
	"rpg2/internal/cpu"
	"rpg2/internal/machine"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
)

// The paper's fixed controller parameters (§3).
const (
	// windowSeconds is one IPC measurement window (paper: 0.3 s).
	windowSeconds = 0.3
	// warmupSeconds runs after each distance edit before measuring, so
	// in-flight prefetches at the old distance drain.
	warmupSeconds = 0.05
	// maxInitialDistance bounds the random starting distance (paper: 100).
	maxInitialDistance = 100
	// MaxDistance caps the search range (paper: 200).
	MaxDistance = 200
)

// Config tunes the controller. The zero value is completed by Defaults.
type Config struct {
	// ProfileSeconds is the PEBS sampling period (paper default: 2 s).
	ProfileSeconds float64
	// MinSamples is the activation threshold: with fewer PEBS records the
	// controller does not optimize (the paper's "not enough profiling
	// data" runs).
	MinSamples int
	// MinImprovement is the relative IPC gain over baseline required to
	// keep prefetching instead of rolling back.
	MinImprovement float64
	// Seed drives the controller's randomness (initial distance) and the
	// measurement noise.
	Seed int64
	// DisableRollback keeps the prefetching code even when it loses to
	// the baseline (ablation).
	DisableRollback bool
	// UseMPKIMetric tunes on LLC-MPKI reduction instead of the default
	// metric (the ablation the paper reports trying and abandoning, §4.4).
	UseMPKIMetric bool
	// RawIPCMetric tunes on raw IPC, exactly as the paper's prose
	// describes. On this reproduction's lean ISA the prefetch kernel's
	// extra instructions inflate IPC much more than on x86 (where one
	// instruction does more work), so the default metric is instead the
	// miss-site retirement rate — work per cycle — which is the signal
	// IPC approximates on real hardware. The raw-IPC mode demonstrates
	// the bias the paper itself observed on sssp/as20000102 (§4.2).
	RawIPCMetric bool
	// LinearSearch replaces the three-stage search with a fixed-stride
	// linear scan (ablation).
	LinearSearch bool
	// SeedFunc and SeedCandidates warm-start the controller from a
	// previously profiled session on a matching (benchmark, input,
	// machine): the candidate prefetch sites are taken as given instead
	// of being mined from this session's PEBS samples, and the MinSamples
	// activation gate is waived (the cached profile is the activation
	// evidence). Profiling still runs — shortened via ProfileSeconds if
	// the caller wants — because the baseline IPC and miss-site
	// retirement rate must be measured on *this* process. The fleet's
	// profile store is the intended caller.
	SeedFunc       string
	SeedCandidates []int
	// SeedDistance starts the distance search at a previously tuned
	// distance instead of a random one. The search then opens with a
	// narrow ±2 gradient span and terminates immediately if the seed is a
	// local optimum, so a good seed converges in as few as three probes.
	SeedDistance int
	// SeedTranslated marks SeedDistance as a cross-machine hypothesis
	// rather than a distance tuned on *this* machine: the search keeps the
	// cold ±5 gradient span and never takes the warm fast-path accept, so
	// a mistranslated distance is walked away from instead of locked in.
	// The fleet's profile-translation layer is the intended caller.
	SeedTranslated bool
	// OnPhase, when non-nil, is invoked at each controller phase
	// transition with the phase name ("profile", "rewrite", "insert",
	// "tune", "detach") and the session-relative simulated time in
	// seconds. The fleet's event journal listens here; the hook must not
	// touch the target process.
	OnPhase func(phase string, seconds float64)
	// FaultHook, when non-nil, is consulted at the controller's three
	// fault-injection boundaries — "profile" (end of PEBS collection),
	// "rewrite" (before the BOLT pass), and "osr" (before runtime code
	// insertion). A non-nil return aborts the session with that error,
	// before the target is perturbed by the stage in question. The
	// fleet's deterministic fault injector is the intended caller.
	FaultHook func(stage string) error
	// AutoPhaseDetect ignores the benchmark's explicit end-of-init signal
	// and instead detects the transition to the main phase from the IPC
	// trace: profiling starts once several consecutive short windows
	// agree. The paper relies on modified benchmarks that signal init
	// completion and names phase detection as the automatic alternative
	// (§4.1); this implements that alternative.
	AutoPhaseDetect bool
}

// Defaults fills unset fields with the paper's values.
func (c Config) Defaults() Config {
	if c.ProfileSeconds == 0 {
		c.ProfileSeconds = 2.0
	}
	if c.MinSamples == 0 {
		c.MinSamples = 100
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 0.01
	}
	return c
}

// Outcome summarises what the controller did to the target.
type Outcome uint8

// Outcomes.
const (
	// NotActivated: too few samples or no supported candidate loads; the
	// target was left untouched.
	NotActivated Outcome = iota
	// Tuned: prefetching was injected and a beneficial distance installed.
	Tuned
	// RolledBack: prefetching was injected, no distance beat the
	// baseline, and execution was steered back to f0.
	RolledBack
	// TargetExited: the target finished before optimization completed.
	TargetExited
)

func (o Outcome) String() string {
	switch o {
	case NotActivated:
		return "not-activated"
	case Tuned:
		return "tuned"
	case RolledBack:
		return "rolled-back"
	case TargetExited:
		return "target-exited"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// MarshalJSON encodes the outcome as its string name, so session reports
// serialise readably (cmd/rpg2 -json and the fleet journal share this).
func (o Outcome) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (o *Outcome) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, c := range []Outcome{NotActivated, Tuned, RolledBack, TargetExited} {
		if c.String() == s {
			*o = c
			return nil
		}
	}
	return fmt.Errorf("rpg2: unknown outcome %q", s)
}

// TimelinePoint is one performance observation on the controller's
// timeline, tagged with the phase that produced it (Figure 10's raw data).
type TimelinePoint struct {
	Seconds float64
	IPC     float64
	// Rate is the miss-site retirement rate (0 before candidates are
	// known).
	Rate  float64
	Phase string
}

// OpCosts reports the latency of key controller operations in simulated
// seconds — the rows of the paper's Table 2.
type OpCosts struct {
	// ExecSeconds spans profiling start to detach.
	ExecSeconds float64
	// BOLTSeconds is the background binary-rewrite latency.
	BOLTSeconds float64
	// CodeInsertSeconds is the stop-the-world cost of phase 3.
	CodeInsertSeconds float64
	// PDEditSeconds is the mean stop-the-world cost of one prefetch
	// distance edit.
	PDEditSeconds float64
	// PDEdits is the number of distances explored by the search.
	PDEdits int
	// RollbackSeconds is the stop-the-world cost of rolling back (zero
	// unless Outcome is RolledBack).
	RollbackSeconds float64
}

// Report is the controller's account of one optimization session.
type Report struct {
	Outcome  Outcome
	FuncName string
	// Sites are the injected prefetch kernels (empty if not activated).
	Sites []bolt.Site
	// F1Entry is the injected function's entry PC (if activated).
	F1Entry int
	// BaselineIPC is the IPC observed during profiling.
	BaselineIPC float64
	// BaselineRate is the miss-site retirement rate (work per cycle)
	// observed before optimization.
	BaselineRate float64
	// BestIPC is the IPC at the best tuned distance.
	BestIPC float64
	// BestRate is the best tuned work rate found.
	BestRate float64
	// InitialDistance is the random starting distance r.
	InitialDistance int
	// FinalDistance is the installed distance (if Tuned).
	FinalDistance int
	// Explored maps each measured distance to its observed value of the
	// tuning metric.
	Explored map[int]float64
	// Samples is the number of PEBS records collected.
	Samples int
	// Costs regenerates Table 2.
	Costs OpCosts
	// Timeline is the IPC trace of the session (Figure 10).
	Timeline []TimelinePoint

	// baselineMetric is the baseline value of the active tuning metric.
	baselineMetric float64
	// explored caches full measurements per distance.
	explored map[int]measurement
	// ins is the live insertion handle of a Tuned session, retained so a
	// later Retune can re-enter the distance search against the injected
	// code without re-profiling. In-process only: it does not survive
	// JSON (see Report.CanRetune).
	ins *insertion
}

// Controller runs RPG² against one target process.
type Controller struct {
	mach machine.Machine
	cfg  Config
	rng  *rand.Rand
	// watch is the controller's private work counter over the candidate
	// miss sites, attached during phase 1.
	watch *cpu.Watch
}

// New builds a controller for a machine.
func New(mach machine.Machine, cfg Config) *Controller {
	c := cfg.Defaults()
	return &Controller{mach: mach, cfg: c, rng: rand.New(rand.NewSource(c.Seed))}
}

// ErrCrashed is returned when the target crashes during optimization — the
// correctness criterion (prefetch kernels are NOPs) has been violated.
var ErrCrashed = errors.New("rpg2: target process crashed during optimization")

// Optimize attaches to the process and runs the four phases to completion.
// On return the process is detached and continues to run (or has exited).
func (c *Controller) Optimize(p *proc.Process) (*Report, error) {
	r := &Report{Explored: make(map[int]float64)}
	tr := proc.Attach(p)
	defer tr.Detach()
	agent := proc.Preload(p)

	// Wait for the end of the target's initialisation phase — via the
	// benchmark's explicit signal (§4.1) or, under AutoPhaseDetect, by
	// watching for the IPC trace to stabilise.
	if c.cfg.AutoPhaseDetect {
		c.awaitStablePhase(p)
	} else {
		for !p.InitDone() && p.State() == proc.Running {
			p.Run(c.mach.Seconds(0.05))
		}
	}
	if exited, err := c.checkTarget(p, r); exited {
		return r, err
	}

	tl := c.timeline(p, r)
	defer tl.phase("detach")

	// ---- Phase 1: profiling ----------------------------------------
	tl.phase("profile")
	sampler := perf.NewSampler(c.mach.PEBSPeriod, 1<<16)
	sampler.Attach(p)
	profWindows := int(c.cfg.ProfileSeconds/windowSeconds + 0.5)
	if profWindows < 1 {
		profWindows = 1
	}
	var ipcSum float64
	for i := 0; i < profWindows && p.State() == proc.Running; i++ {
		w := perf.Measure(p, c.mach.Seconds(c.cfg.ProfileSeconds)/uint64(profWindows), c.rng, c.mach.IPCNoise)
		ipcSum += w.IPC
		tl.record("profile", w.IPC, 0)
	}
	sampler.Detach()
	r.BaselineIPC = ipcSum / float64(profWindows)
	r.Samples = len(sampler.Records())
	if exited, err := c.checkTarget(p, r); exited {
		return r, err
	}
	if err := c.fault("profile"); err != nil {
		return r, err
	}
	seeded := c.cfg.SeedFunc != "" && len(c.cfg.SeedCandidates) > 0
	if r.Samples < c.cfg.MinSamples && !seeded {
		r.Outcome = NotActivated
		return r, nil
	}

	// Candidate filtering: hottest function, sites with >=10% of its
	// misses (§3.1) — or, warm-started, the cached sites from a previous
	// session on a matching workload.
	var fnName string
	var candidates []int
	if seeded {
		fnName, candidates = c.cfg.SeedFunc, c.cfg.SeedCandidates
	} else {
		fnName, candidates = perf.Candidates(perf.AggregateByPC(sampler.Records(), p))
	}
	if fnName == "" {
		r.Outcome = NotActivated
		return r, nil
	}
	r.FuncName = fnName

	// With the candidate sites known, attach the controller's own work
	// counter over them and take the baseline performance reading the
	// tuning phase will compare against. The counter is private: any
	// observer-installed watches keep counting their own instruction
	// sets undisturbed.
	c.watch = perf.AttachWatch(p, candidates)
	w := perf.MeasureWatch(p, c.watch, c.mach.Seconds(windowSeconds), c.rng, c.mach.IPCNoise)
	r.BaselineRate = w.Rate
	tl.record("profile", w.IPC, w.Rate)

	// ---- Phase 2: code analysis & generation (runs in background) --
	tl.phase("rewrite")
	r.InitialDistance = c.initialDistance()
	bin := c.snapshotBinary(p)
	p.Run(uint64(c.mach.BOLTCycles)) // the target runs while BOLT works
	r.Costs.BOLTSeconds = c.mach.ToSeconds(uint64(c.mach.BOLTCycles))
	if err := c.fault("rewrite"); err != nil {
		return r, err
	}
	rw, err := bolt.InjectPrefetch(bin, fnName, candidates, r.InitialDistance)
	if err != nil {
		// No supported access pattern: leave the target untouched.
		r.Outcome = NotActivated
		return r, nil //nolint:nilerr // unsupported patterns are an expected outcome
	}
	r.Sites = rw.Sites
	if exited, err := c.checkTarget(p, r); exited {
		return r, err
	}

	// ---- Phase 3: runtime code insertion + OSR ----------------------
	tl.phase("insert")
	if err := c.fault("osr"); err != nil {
		return r, err
	}
	ins, err := insertCode(tr, agent, rw)
	if err != nil {
		return r, fmt.Errorf("rpg2: code insertion: %w", err)
	}
	r.F1Entry = ins.f1Entry
	r.Costs.CodeInsertSeconds = c.mach.ToSeconds(ins.stolen)
	tl.record("insert", r.BaselineIPC, r.BaselineRate)
	// Every watched f0 instruction — in the controller's counter and in
	// any observer's — now also lives at a translated f1 address. Extend
	// every attached watch with the translations so all rates remain
	// comparable across the version switch (and across rollback).
	for _, wt := range perf.Watches(p) {
		wt.Extend(rw.BAT.Live(ins.f1Entry, wt.PCs))
	}

	// ---- Phase 4: monitoring and tuning -----------------------------
	tl.phase("tune")
	best, err := c.tune(tr, agent, ins, r, tl.record)
	r.BestIPC = best.ipc
	r.BestRate = best.rate
	defer func() { r.Costs.ExecSeconds = tl.since() }()
	if err != nil {
		return r, err
	}
	if exited, err := c.checkTarget(p, r); exited {
		return r, err
	}

	improved := best.d > 0 && best.metric > c.metricBaseline(r)*(1+c.cfg.MinImprovement)
	if !improved && !c.cfg.DisableRollback {
		stolen, err := rollback(tr, ins)
		if err != nil {
			return r, fmt.Errorf("rpg2: rollback: %w", err)
		}
		r.Costs.RollbackSeconds = c.mach.ToSeconds(stolen)
		r.Outcome = RolledBack
		tl.record("rollback", r.BaselineIPC, r.BaselineRate)
		return r, nil
	}
	// Install the best distance and detach (§3.4).
	if err := c.setDistance(tr, agent, ins, best.d); err != nil {
		return r, err
	}
	r.FinalDistance = best.d
	r.Outcome = Tuned
	r.ins = ins
	tl.record("tuned", best.ipc, best.rate)
	return r, nil
}

// awaitStablePhase runs the target in short windows until several
// consecutive IPC readings agree within a tolerance — a simple program
// phase detector standing in for the explicit end-of-initialisation signal.
func (c *Controller) awaitStablePhase(p *proc.Process) {
	const (
		window    = 0.1  // seconds per reading
		need      = 4    // consecutive agreeing readings
		tolerance = 0.12 // relative IPC agreement
		timeout   = 8.0  // seconds before profiling starts regardless
	)
	deadline := p.Clock() + c.mach.Seconds(timeout)
	prev := -1.0
	streak := 0
	for p.State() == proc.Running && p.Clock() < deadline {
		w := perf.Measure(p, c.mach.Seconds(window), nil, 0)
		if prev > 0 && w.IPC > 0 {
			rel := (w.IPC - prev) / prev
			if rel < 0 {
				rel = -rel
			}
			if rel <= tolerance {
				if streak++; streak >= need {
					return
				}
			} else {
				streak = 0
			}
		}
		prev = w.IPC
	}
}

// fault consults the configured fault hook at one injection boundary,
// tagging the returned error with the stage while keeping the injected
// cause unwrappable.
func (c *Controller) fault(stage string) error {
	if c.cfg.FaultHook == nil {
		return nil
	}
	if err := c.cfg.FaultHook(stage); err != nil {
		return fmt.Errorf("rpg2: %s stage: %w", stage, err)
	}
	return nil
}

// timeline clocks one controller pass from the moment it attaches: the
// report's timeline points and the OnPhase calls are stamped in simulated
// seconds since then.
type timeline struct {
	c     *Controller
	p     *proc.Process
	r     *Report
	start uint64
}

func (c *Controller) timeline(p *proc.Process, r *Report) timeline {
	return timeline{c: c, p: p, r: r, start: p.Clock()}
}

// since is the simulated time the pass has run.
func (t timeline) since() float64 { return t.c.mach.ToSeconds(t.p.Clock() - t.start) }

// record appends one point to the report's timeline (Figure 10).
func (t timeline) record(phase string, ipc, rate float64) {
	t.r.Timeline = append(t.r.Timeline, TimelinePoint{Seconds: t.since(), IPC: ipc, Rate: rate, Phase: phase})
}

// phase tells Config.OnPhase that a controller phase starts.
func (t timeline) phase(name string) {
	if t.c.cfg.OnPhase != nil {
		t.c.cfg.OnPhase(name, t.since())
	}
}

// initialDistance is the search's starting distance r: the configured
// seed, clamped, or else a random draw (§3.4).
func (c *Controller) initialDistance() int {
	if c.cfg.SeedDistance > 0 {
		return c.clampDistance(c.cfg.SeedDistance)
	}
	return 1 + c.rng.Intn(maxInitialDistance)
}

// checkTarget folds target death into the report.
func (c *Controller) checkTarget(p *proc.Process, r *Report) (stop bool, err error) {
	switch p.State() {
	case proc.Crashed:
		return true, ErrCrashed
	case proc.Exited:
		r.Outcome = TargetExited
		return true, nil
	}
	return false, nil
}

// metricBaseline returns the baseline value of the tuning metric.
func (c *Controller) metricBaseline(r *Report) float64 {
	return r.baselineMetric
}
