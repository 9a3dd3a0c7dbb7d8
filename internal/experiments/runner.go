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

// QuickOptions returns a reduced configuration for smoke runs and -short
// tests: fewer inputs, shorter runs, a coarser sweep.
func QuickOptions() Options {
	o := DefaultOptions()
	o.CRONOInputs = o.CRONOInputs[:6]
	o.SynthInputs = o.SynthInputs[:2]
	o.RunSeconds = 20
	o.Trials = 1
	ds := make([]int, 0, 25)
	for d := 1; d <= 100; d += 4 {
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

	mu      sync.Mutex
	sweeps  map[string]*baselines.Sweep
	swErr   map[string]error
	cands   map[string][]int
	candErr map[string]error
	aptget  map[string]int
	aptErr  map[string]error
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
	return &Runner{
		opts:    opts,
		fleet:   f,
		sweeps:  make(map[string]*baselines.Sweep),
		swErr:   make(map[string]error),
		cands:   make(map[string][]int),
		candErr: make(map[string]error),
		aptget:  make(map[string]int),
		aptErr:  make(map[string]error),
	}
}

// Options returns the runner's configuration.
func (r *Runner) Options() Options { return r.opts }

// Fleet exposes the runner's execution layer.
func (r *Runner) Fleet() *fleet.Fleet { return r.fleet }

// Journal returns the fleet's event journal: every cell of every figure
// appears here as a session lifecycle.
func (r *Runner) Journal() *fleet.Journal { return r.fleet.Journal() }

// Snapshot freezes the fleet's metrics (job kinds, store and build-cache
// counters, latencies).
func (r *Runner) Snapshot() fleet.Snapshot { return r.fleet.Snapshot() }

// Close stops the fleet's workers. The runner is not usable afterwards.
func (r *Runner) Close() { r.fleet.Close() }

// pairKey identifies a (benchmark, input, machine) combination.
func pairKey(bench, input, mach string) string { return bench + "|" + input + "|" + mach }

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

// prefetchSweeps submits one SweepJob per not-yet-memoized cell and waits,
// so later sweep() getters are pure memo reads.
func (r *Runner) prefetchSweeps(cells []cellRef) {
	var specs []fleet.SessionSpec
	var keys []string
	seen := make(map[string]bool)
	r.mu.Lock()
	for _, c := range cells {
		key := pairKey(c.bench, c.input, c.m.Name)
		if seen[key] {
			continue
		}
		if _, ok := r.sweeps[key]; ok {
			continue
		}
		seen[key] = true
		cfg := r.opts.Sweep
		specs = append(specs, fleet.SessionSpec{
			Bench: c.bench, Input: c.input, Kind: fleet.SweepJob,
			Machine: r.mptr(c.m), Sweep: &cfg,
		})
		keys = append(keys, key)
	}
	r.mu.Unlock()
	if len(specs) == 0 {
		return
	}
	got, err := r.runBatch(specs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, key := range keys {
		if i >= len(got) {
			r.sweeps[key], r.swErr[key] = nil, err
			continue
		}
		s := got[i]
		if s.State() == fleet.Failed {
			r.sweeps[key], r.swErr[key] = nil, s.Err()
			continue
		}
		r.sweeps[key] = s.SweepResult()
	}
}

// sweep returns the memoized offline distance sweep for a combination,
// running it through the fleet on first use.
func (r *Runner) sweep(bench, input string, m machine.Machine) (*baselines.Sweep, error) {
	key := pairKey(bench, input, m.Name)
	r.mu.Lock()
	if s, ok := r.sweeps[key]; ok {
		err := r.swErr[key]
		r.mu.Unlock()
		return s, err
	}
	r.mu.Unlock()
	r.prefetchSweeps([]cellRef{{bench, input, m}})
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweeps[key], r.swErr[key]
}

// prefetchCandidates submits one ProfileJob per not-yet-memoized cell.
func (r *Runner) prefetchCandidates(cells []cellRef) {
	var specs []fleet.SessionSpec
	var keys []string
	seen := make(map[string]bool)
	r.mu.Lock()
	for _, c := range cells {
		key := pairKey(c.bench, c.input, c.m.Name)
		if seen[key] {
			continue
		}
		if _, ok := r.cands[key]; ok {
			continue
		}
		if _, ok := r.candErr[key]; ok {
			continue
		}
		seen[key] = true
		specs = append(specs, fleet.SessionSpec{
			Bench: c.bench, Input: c.input, Kind: fleet.ProfileJob,
			Machine: r.mptr(c.m),
		})
		keys = append(keys, key)
	}
	r.mu.Unlock()
	if len(specs) == 0 {
		return
	}
	got, err := r.runBatch(specs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, key := range keys {
		if i >= len(got) {
			r.candErr[key] = err
			continue
		}
		s := got[i]
		if s.State() == fleet.Failed {
			r.candErr[key] = s.Err()
			continue
		}
		r.cands[key] = s.Candidates()
	}
}

// candidates returns the memoized profiled candidate PCs for a combination.
func (r *Runner) candidates(bench, input string, m machine.Machine) ([]int, error) {
	key := pairKey(bench, input, m.Name)
	r.mu.Lock()
	if c, ok := r.cands[key]; ok {
		r.mu.Unlock()
		return c, nil
	}
	if err, ok := r.candErr[key]; ok {
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Unlock()
	r.prefetchCandidates([]cellRef{{bench, input, m}})
	r.mu.Lock()
	defer r.mu.Unlock()
	if err, ok := r.candErr[key]; ok {
		return nil, err
	}
	return r.cands[key], nil
}

// prefetchAPTGET submits one APTGETJob per not-yet-memoized (bench,
// machine) pair. The scheme's distance is derived from one randomly chosen
// input and baked into the binary run on all inputs (§4.1.1); the paper
// notes APT-GET data is missing for sssp, bfs, and randacc, but this
// reproduction can generate it, so it does.
func (r *Runner) prefetchAPTGET(benches []string, machines []machine.Machine) {
	var specs []fleet.SessionSpec
	var keys []string
	seen := make(map[string]bool)
	r.mu.Lock()
	for _, m := range machines {
		for _, b := range benches {
			key := b + "|" + m.Name
			if seen[key] {
				continue
			}
			if _, ok := r.aptget[key]; ok {
				continue
			}
			if _, ok := r.aptErr[key]; ok {
				continue
			}
			seen[key] = true
			inputs := r.inputsFor(b)
			rng := rand.New(rand.NewSource(r.opts.Seed + int64(len(b))))
			in := inputs[rng.Intn(len(inputs))]
			specs = append(specs, fleet.SessionSpec{
				Bench: b, Input: in, Kind: fleet.APTGETJob,
				Machine: r.mptr(m),
			})
			keys = append(keys, key)
		}
	}
	r.mu.Unlock()
	if len(specs) == 0 {
		return
	}
	got, err := r.runBatch(specs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, key := range keys {
		if i >= len(got) {
			r.aptErr[key] = err
			continue
		}
		s := got[i]
		if s.State() == fleet.Failed {
			r.aptErr[key] = s.Err()
			continue
		}
		r.aptget[key] = s.Distance()
	}
}

// aptgetDistance returns the memoized APT-GET distance for a benchmark on
// a machine.
func (r *Runner) aptgetDistance(bench string, m machine.Machine) (int, error) {
	key := bench + "|" + m.Name
	r.mu.Lock()
	if d, ok := r.aptget[key]; ok {
		r.mu.Unlock()
		return d, nil
	}
	if err, ok := r.aptErr[key]; ok {
		r.mu.Unlock()
		return 0, err
	}
	r.mu.Unlock()
	r.prefetchAPTGET([]string{bench}, []machine.Machine{m})
	r.mu.Lock()
	defer r.mu.Unlock()
	if err, ok := r.aptErr[key]; ok {
		return 0, err
	}
	return r.aptget[key], nil
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
		key := pairKey(c.bench, c.input, c.m.Name)
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
