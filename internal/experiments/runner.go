// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated machines. There is exactly one execution
// layer: each runner owns an internal/fleet instance and submits every
// measured cell — baselines, RPG² trials, static schemes, offline sweeps,
// PEBS profiles, APT-GET derivations — as a fleet session. The fleet gives
// every cell the same admission queue, worker pool, lifecycle journal and
// metrics, and its workload build cache ensures each (benchmark, input)
// graph is constructed once per process no matter how many cells touch it.
//
// Speedups are measured as work throughput: retirements of each workload's
// marked miss-site instruction (and of its image in rewritten code) per
// fixed span of simulated time. For a fixed amount of work this equals
// inverse runtime, and unlike IPC it is unbiased by the prefetch kernel's
// extra instructions.
//
// Results are deterministic: measured RPG² sessions run cold (bypassing
// the profile store) unless Options.WarmStart is set, in which case the
// store is pre-warmed once per cell and frozen for the measured batch —
// either way, the same seed and options render byte-identical tables
// regardless of worker count or build-cache temperature.
package experiments

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"rpg2/internal/baselines"
	"rpg2/internal/fleet"
	"rpg2/internal/graphs"
	"rpg2/internal/machine"
	"rpg2/internal/rpg2"
)

// Options configures the harness scale.
type Options struct {
	// Machines to evaluate on (default: Cascade Lake and Haswell).
	Machines []machine.Machine
	// CRONOInputs are the graph inputs for pr/bfs/sssp.
	CRONOInputs []graphs.Input
	// SynthInputs are the APT-GET-style inputs (bc runs only on these).
	SynthInputs []graphs.Input
	// RunSeconds is the simulated duration of one end-to-end run
	// (the paper extends benchmarks to run at least 60 s).
	RunSeconds float64
	// Trials is the number of RPG² runs per (benchmark, input, machine),
	// with different seeds (the paper collects 5 successful runs).
	Trials int
	// Parallelism bounds concurrent fleet sessions (default: GOMAXPROCS).
	Parallelism int
	// StoreAddr, when set, points the fleet at a shared rpg2-stored
	// daemon at this base URL instead of an in-process store. Results
	// then depend on what the daemon already holds: only byte-identical
	// to the in-process runs against a fresh, private daemon.
	StoreAddr string
	// Sweep configures offline distance sweeps.
	Sweep baselines.SweepConfig
	// Seed is the root seed for scheme randomness.
	Seed int64
	// WarmStart lets Figure 7's measured RPG² sessions warm-start from
	// the fleet's profile store: each cell is pre-warmed once, then the
	// store is frozen for the measured batch so results stay independent
	// of scheduling order. Off by default: cold sessions depend only on
	// their spec.
	WarmStart bool
}

// DefaultOptions returns the full-scale configuration.
func DefaultOptions() Options {
	return Options{
		Machines:    machine.Both(),
		CRONOInputs: graphs.Catalogue(),
		SynthInputs: graphs.SyntheticCatalogue(),
		RunSeconds:  60,
		Trials:      3,
		Sweep:       baselines.DefaultSweep(),
		Seed:        42,
	}
}

// QuickOptions returns the scale EXPERIMENTS.md quotes its numbers at, and
// what `rpg2-experiments -quick` runs: the first 8 CRONO inputs and 3
// synthetic ones, 30 s runs, 2 trials, sweep distances 1..99 in steps of 2.
func QuickOptions() Options {
	o := DefaultOptions()
	o.CRONOInputs = o.CRONOInputs[:8]
	o.SynthInputs = o.SynthInputs[:3]
	o.RunSeconds = 30
	o.Trials = 2
	ds := make([]int, 0, 50)
	for d := 1; d <= 100; d += 2 {
		ds = append(ds, d)
	}
	o.Sweep.Distances = ds
	return o
}

// SmokeOptions shrinks everything so the full pipeline runs in seconds:
// two CRONO inputs, two synthetic inputs, one trial, a six-point sweep.
// This is what the CI smoke job and the package's own tests run.
func SmokeOptions() Options {
	o := QuickOptions()
	o.CRONOInputs = pickInputs("soc-alpha", "as20000102-like")
	o.SynthInputs = pickInputs("synth-small", "synth-u1")
	o.RunSeconds = 15
	o.Trials = 1
	o.Sweep = baselines.SweepConfig{
		Distances:     []int{1, 4, 8, 16, 32, 64},
		WarmSeconds:   0.1,
		WindowSeconds: 0.25,
		Seed:          1,
	}
	return o
}

func pickInputs(names ...string) []graphs.Input {
	out := make([]graphs.Input, len(names))
	for i, n := range names {
		in, ok := graphs.FindInput(n)
		if !ok {
			panic("experiments: unknown input " + n)
		}
		out[i] = in
	}
	return out
}

// Runner executes experiments by submitting every cell to its fleet,
// memoizing the shared intermediate products (offline sweeps, profiled
// candidates, APT-GET distances) across figures.
type Runner struct {
	opts  Options
	fleet *fleet.Fleet

	sweeps *memo[*baselines.Sweep]
	cands  *memo[[]int]
	aptget *memo[int]
}

// NewRunner builds a runner and starts its fleet; call Close when done.
func NewRunner(opts Options) *Runner {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Trials <= 0 {
		opts.Trials = 1
	}
	fm := machine.Both()[0]
	if len(opts.Machines) > 0 {
		fm = opts.Machines[0]
	}
	f := fleet.New(fleet.Config{
		Machine:    fm,
		Workers:    opts.Parallelism,
		RunSeconds: opts.RunSeconds,
		StoreAddr:  opts.StoreAddr,
	})
	r := &Runner{opts: opts, fleet: f}
	r.sweeps = newMemo(f, cellRef.key, r.sweepSpec, (*fleet.Session).SweepResult)
	r.cands = newMemo(f, cellRef.key, r.profileSpec, (*fleet.Session).Candidates)
	r.aptget = newMemo(f, func(c cellRef) string { return c.bench + "|" + c.m.Name },
		r.aptgetSpec, (*fleet.Session).Distance)
	return r
}

// Journal returns the fleet's event journal: every cell of every figure
// appears here as a session lifecycle.
func (r *Runner) Journal() *fleet.Journal { return r.fleet.Journal() }

// Snapshot freezes the fleet's metrics (job kinds, store and build-cache
// counters, latencies).
func (r *Runner) Snapshot() fleet.Snapshot { return r.fleet.Snapshot() }

// Close stops the fleet's workers. The runner is not usable afterwards.
func (r *Runner) Close() { r.fleet.Close() }

// mptr copies a machine for a per-session override.
func (r *Runner) mptr(m machine.Machine) *machine.Machine { mp := m; return &mp }

// runBatch submits a batch of specs and waits for all of them.
func (r *Runner) runBatch(specs []fleet.SessionSpec) ([]*fleet.Session, error) {
	return r.fleet.Run(specs)
}

// inputsFor returns the input names a benchmark runs on.
func (r *Runner) inputsFor(bench string) []string {
	switch bench {
	case "pr", "bfs", "sssp":
		names := make([]string, len(r.opts.CRONOInputs))
		for i, in := range r.opts.CRONOInputs {
			names[i] = in.Name
		}
		return names
	case "bc":
		names := make([]string, len(r.opts.SynthInputs))
		for i, in := range r.opts.SynthInputs {
			names[i] = in.Name
		}
		return names
	default: // AJ benchmarks: a single fixed input
		return []string{""}
	}
}

// cellRef names one (benchmark, input, machine) combination.
type cellRef struct {
	bench, input string
	m            machine.Machine
}

func (c cellRef) key() string { return c.bench + "|" + c.input + "|" + c.m.Name }

// cells enumerates every (benchmark, input) combination of benches on every
// machine, machines outermost — the order Figures 7 and 8 index seeds by.
func (r *Runner) cells(benches []string) []cellRef {
	var out []cellRef
	for _, m := range r.opts.Machines {
		for _, b := range benches {
			for _, in := range r.inputsFor(b) {
				out = append(out, cellRef{b, in, m})
			}
		}
	}
	return out
}

// memo caches one product of a fleet session per cell — an offline sweep, a
// profile's candidate PCs, an APT-GET distance — errors cached like values.
type memo[T any] struct {
	fleet   *fleet.Fleet
	key     func(cellRef) string            // cells with equal keys share one session
	spec    func(cellRef) fleet.SessionSpec // the session computing a cell's product
	product func(*fleet.Session) T

	mu   sync.Mutex
	done map[string]memoEntry[T]
}

type memoEntry[T any] struct {
	v   T
	err error
}

func newMemo[T any](f *fleet.Fleet, key func(cellRef) string, spec func(cellRef) fleet.SessionSpec, product func(*fleet.Session) T) *memo[T] {
	return &memo[T]{fleet: f, key: key, spec: spec, product: product, done: make(map[string]memoEntry[T])}
}

// fill submits one session per key that is neither memoized nor already in
// this batch, in first-seen order (submission order is session-ID order), as
// one batch, and waits, so later gets are pure memo reads.
func (m *memo[T]) fill(cells []cellRef) {
	var specs []fleet.SessionSpec
	var keys []string
	m.mu.Lock()
	for _, c := range cells {
		key := m.key(c)
		if _, ok := m.done[key]; ok || slices.Contains(keys, key) {
			continue
		}
		specs = append(specs, m.spec(c))
		keys = append(keys, key)
	}
	m.mu.Unlock()
	if len(specs) == 0 {
		return
	}
	got, err := m.fleet.Run(specs)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, key := range keys {
		switch {
		case i >= len(got):
			m.done[key] = memoEntry[T]{err: err}
		case got[i].State() == fleet.Failed:
			m.done[key] = memoEntry[T]{err: got[i].Err()}
		default:
			m.done[key] = memoEntry[T]{v: m.product(got[i])}
		}
	}
}

// get returns a cell's product, running its session on first use.
func (m *memo[T]) get(c cellRef) (T, error) {
	m.fill([]cellRef{c})
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.done[m.key(c)]
	return e.v, e.err
}

// sweepSpec is the offline distance sweep of one cell.
func (r *Runner) sweepSpec(c cellRef) fleet.SessionSpec {
	cfg := r.opts.Sweep
	return fleet.SessionSpec{
		Bench: c.bench, Input: c.input, Kind: fleet.SweepJob,
		Machine: r.mptr(c.m), Sweep: &cfg,
	}
}

// profileSpec is the PEBS profile yielding one cell's candidate PCs.
func (r *Runner) profileSpec(c cellRef) fleet.SessionSpec {
	return fleet.SessionSpec{
		Bench: c.bench, Input: c.input, Kind: fleet.ProfileJob,
		Machine: r.mptr(c.m),
	}
}

// aptgetSpec derives APT-GET's distance for a (benchmark, machine) pair,
// whatever the cell's input: the scheme derives it from one randomly chosen
// input and bakes it into the binary run on all inputs (§4.1.1). The paper
// notes APT-GET data is missing for sssp, bfs, and randacc, but this
// reproduction can generate it, so it does.
func (r *Runner) aptgetSpec(c cellRef) fleet.SessionSpec {
	inputs := r.inputsFor(c.bench)
	rng := rand.New(rand.NewSource(r.opts.Seed + int64(len(c.bench))))
	return fleet.SessionSpec{
		Bench: c.bench, Input: inputs[rng.Intn(len(inputs))], Kind: fleet.APTGETJob,
		Machine: r.mptr(c.m),
	}
}

// warmStart optionally pre-warms the profile store with one non-cold
// session per distinct cell and freezes the store, so the measured batch's
// warm lookups are independent of scheduling order. The returned function
// thaws the store; it is a no-op when WarmStart is off.
func (r *Runner) warmStart(cells []cellRef) func() {
	if !r.opts.WarmStart {
		return func() {}
	}
	var specs []fleet.SessionSpec
	seen := make(map[string]bool)
	for i, c := range cells {
		key := c.key()
		if seen[key] {
			continue
		}
		seen[key] = true
		specs = append(specs, fleet.SessionSpec{
			Bench: c.bench, Input: c.input, Machine: r.mptr(c.m),
			Seed:       r.opts.Seed + 900000 + int64(i),
			RunSeconds: -1,
		})
	}
	// A failed warm-up just leaves that key cold; the measured session
	// then misses the frozen store, which is still deterministic.
	r.runBatch(specs)
	r.fleet.Store().Freeze()
	return r.fleet.Store().Thaw
}

// runResult is one measured cell's outcome.
type runResult struct {
	// Work is the total worksite retirements over the run.
	Work uint64
	// Report is non-nil for RPG² runs.
	Report *rpg2.Report
	// TailMPKI and TailInstrPer are measured over a trailing window (for
	// Figures 11 and 12 style analyses).
	TailMPKI     float64
	TailInstrPer float64 // instructions per work item in the tail window
}

// resultFrom converts a finished measured session.
func resultFrom(s *fleet.Session) (runResult, error) {
	if s.State() == fleet.Failed {
		return runResult{Report: s.Report()}, s.Err()
	}
	rr := runResult{Report: s.Report()}
	if m := s.Measurement(); m != nil {
		rr.Work = m.Work
		rr.TailMPKI = m.MPKI
		rr.TailInstrPer = m.InstrPerWork
	}
	return rr, nil
}
