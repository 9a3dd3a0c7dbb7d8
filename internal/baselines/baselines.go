// Package baselines implements the alternative prefetching schemes RPG² is
// compared against in the paper's evaluation (§4.1.1):
//
//   - offline: a binary per input with the best prefetch distance found by
//     exhaustive search — an upper bound that never pays online costs but
//     also can never roll back.
//   - APT-GET-like static profile-guided compilation: profile one randomly
//     chosen input, bake the resulting distance into a single binary, run
//     it on every input.
//   - manual: the benchmark developers' hand-chosen distances (AJ
//     benchmarks only).
//
// It also provides the offline distance-sweep machinery that regenerates
// Figures 1-3, the sensitivity classification data of Table 3, and the
// ground-truth optima of Figure 8.
package baselines

import (
	"fmt"
	"math/rand"

	"rpg2/internal/bolt"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// RunUntilInit advances a process past its initialisation phase.
func RunUntilInit(p *proc.Process, m machine.Machine) error {
	for !p.InitDone() {
		if p.State() != proc.Running {
			return fmt.Errorf("baselines: process %v before init completed", p.State())
		}
		p.Run(m.Seconds(0.05))
	}
	return nil
}

// LaunchWarm launches bin over w's data, runs it past initialisation,
// attaches a work watch over watchPCs (none when watchPCs is empty) and
// runs it warmSeconds more: how every reference-scheme measurement starts.
func LaunchWarm(w *workloads.Workload, bin *isa.Binary, m machine.Machine, watchPCs []int, warmSeconds float64) (*proc.Process, *cpu.Watch, error) {
	p, err := m.Launch(bin, w.Setup)
	if err != nil {
		return nil, nil, err
	}
	if err := RunUntilInit(p, m); err != nil {
		return nil, nil, err
	}
	var watch *cpu.Watch
	if len(watchPCs) > 0 {
		watch = perf.AttachWatch(p, watchPCs)
	}
	p.Run(m.Seconds(warmSeconds))
	return p, watch, nil
}

// ProfileCandidates launches the workload and runs PEBS-style profiling to
// find its prefetch-candidate loads with RPG²'s own rule (perf.Candidates).
// It returns the candidate PCs in the hot function.
func ProfileCandidates(w *workloads.Workload, m machine.Machine, seconds float64) ([]int, error) {
	// Let the main phase settle past any per-superstep prologue (e.g.
	// bfs's visited-array reset) before sampling.
	p, _, err := LaunchWarm(w, w.Bin, m, nil, 1.0)
	if err != nil {
		return nil, err
	}
	s := perf.NewSampler(m.PEBSPeriod, 1<<16)
	s.Attach(p)
	p.Run(m.Seconds(seconds))
	s.Detach()
	_, pcs := perf.Candidates(perf.AggregateByPC(s.Records(), p))
	if len(pcs) == 0 {
		return nil, fmt.Errorf("baselines: no candidate loads found for %s/%s", w.Name, w.InputName)
	}
	return pcs, nil
}

// Prefetched is a statically prefetching build of a workload: the BOLTed
// binary plus everything needed to repoint its distance and measure it.
type Prefetched struct {
	Bin *isa.Binary
	RW  *bolt.Rewrite
	// F1Entry is the rewritten function's entry in Bin.
	F1Entry int
	// WatchPCs are the miss-site PCs in the rewritten function.
	WatchPCs []int
}

// BuildPrefetched applies the InjectPrefetchPass statically at the given
// distance, producing the artifact the offline/APT-GET/manual schemes run.
func BuildPrefetched(w *workloads.Workload, candidates []int, distance int) (*Prefetched, error) {
	rw, err := bolt.InjectPrefetch(w.Bin, workloads.KernelFunc, candidates, distance)
	if err != nil {
		return nil, err
	}
	nb, err := rw.Apply(w.Bin)
	if err != nil {
		return nil, err
	}
	f1, ok := nb.Func(rw.NewName)
	if !ok {
		return nil, fmt.Errorf("baselines: rewritten binary lacks %q", rw.NewName)
	}
	return &Prefetched{Bin: nb, RW: rw, F1Entry: f1.Entry, WatchPCs: rw.BAT.Live(f1.Entry, candidates)}, nil
}

// SetDistance rewrites every distance patch point in a live process running
// the prefetched binary. The caller controls the process, so no tracer
// choreography is needed.
func (pf *Prefetched) SetDistance(p *proc.Process, d int) {
	for _, pp := range pf.RW.PatchPoints {
		pc := pf.F1Entry + pp.Offset
		p.WriteText(pc, pp.Apply(p.Text[pc], d))
	}
}

// SetSiteDistance rewrites one site's distance (Figure 13's asymmetric
// configurations).
func (pf *Prefetched) SetSiteDistance(p *proc.Process, site, d int) {
	pp := pf.RW.PatchPoints[site]
	pc := pf.F1Entry + pp.Offset
	p.WriteText(pc, pp.Apply(p.Text[pc], d))
}

// SweepConfig controls an offline distance sweep.
type SweepConfig struct {
	// Distances to measure (e.g. 1..100 for the paper's sweeps).
	Distances []int
	// WarmSeconds runs after each distance change before measuring.
	WarmSeconds float64
	// WindowSeconds is the measurement window per distance.
	WindowSeconds float64
	// BaselineWarmSeconds and BaselineWindowSeconds control the single
	// no-prefetch measurement. They are longer than the per-distance
	// values so phase-structured workloads (bfs resets its visited array
	// every traversal and crawls through tiny early frontiers) are
	// averaged over, not sampled at a phase boundary.
	BaselineWarmSeconds   float64
	BaselineWindowSeconds float64
	// Seed drives measurement noise; 0 disables noise.
	Seed int64
}

// DefaultSweep measures distances 1..100 like the paper's offline
// configuration (§4.5).
func DefaultSweep() SweepConfig {
	ds := make([]int, 100)
	for i := range ds {
		ds[i] = i + 1
	}
	return SweepConfig{Distances: ds, WarmSeconds: 0.15, WindowSeconds: 0.35, Seed: 1}.withDefaults()
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.BaselineWarmSeconds == 0 {
		c.BaselineWarmSeconds = 2.0
	}
	if c.BaselineWindowSeconds == 0 {
		c.BaselineWindowSeconds = 1.2
	}
	return c
}

// Sweep is the result of an offline distance sweep: per-distance speedup
// over the no-prefetch baseline, measured as miss-site work rate.
type Sweep struct {
	Bench, Input, Machine string
	Distances             []int
	// Speedup[i] is rate(Distances[i]) / baseline rate.
	Speedup []float64
	// BaselineRate is the no-prefetch steady-state work rate.
	BaselineRate float64
}

// Best returns the distance with the highest speedup and that speedup.
func (s *Sweep) Best() (int, float64) {
	bi := 0
	for i := range s.Speedup {
		if s.Speedup[i] > s.Speedup[bi] {
			bi = i
		}
	}
	return s.Distances[bi], s.Speedup[bi]
}

// RunSweep builds the workload and calls RunSweepWorkload.
func RunSweep(bench, input string, m machine.Machine, cfg SweepConfig) (*Sweep, error) {
	w, err := workloads.Build(bench, input, 1<<30)
	if err != nil {
		return nil, err
	}
	return RunSweepWorkload(w, m, cfg)
}

// RunSweepWorkload measures the true steady-state speedup of every distance
// in the config for one pre-built workload on one machine. The same
// prefetched process is reused across distances (only the immediates
// change), exactly as the offline configuration of §4.5 explores the space.
func RunSweepWorkload(w *workloads.Workload, m machine.Machine, cfg SweepConfig) (*Sweep, error) {
	cfg = cfg.withDefaults()
	bench, input := w.Name, w.InputName
	candidates, err := ProfileCandidates(w, m, 1.0)
	if err != nil {
		return nil, err
	}
	var rng *rand.Rand
	noise := 0.0
	if cfg.Seed != 0 {
		rng = rand.New(rand.NewSource(cfg.Seed))
		noise = m.IPCNoise
	}

	// Baseline steady-state rate.
	bp, bwatch, err := LaunchWarm(w, w.Bin, m, candidates, cfg.BaselineWarmSeconds)
	if err != nil {
		return nil, err
	}
	base := perf.MeasureWatch(bp, bwatch, m.Seconds(cfg.BaselineWindowSeconds), rng, noise)
	if base.Work == 0 {
		return nil, fmt.Errorf("baselines: baseline run retired no work items for %s/%s", bench, input)
	}

	pf, err := BuildPrefetched(w, candidates, cfg.Distances[0])
	if err != nil {
		return nil, err
	}
	// The same warm-up as the baseline, for the same phase alignment.
	pp, pwatch, err := LaunchWarm(w, pf.Bin, m, pf.WatchPCs, cfg.BaselineWarmSeconds)
	if err != nil {
		return nil, err
	}

	out := &Sweep{
		Bench: bench, Input: input, Machine: m.Name,
		Distances:    append([]int(nil), cfg.Distances...),
		Speedup:      make([]float64, len(cfg.Distances)),
		BaselineRate: base.Rate,
	}
	for i, d := range cfg.Distances {
		pf.SetDistance(pp, d)
		pp.Run(m.Seconds(cfg.WarmSeconds))
		win := perf.MeasureWatch(pp, pwatch, m.Seconds(cfg.WindowSeconds), rng, noise)
		if pp.State() != proc.Running {
			return nil, fmt.Errorf("baselines: prefetched %s/%s %v at distance %d", bench, input, pp.State(), d)
		}
		out.Speedup[i] = win.Rate / base.Rate
	}
	return out, nil
}

// APTGETDistanceWorkload derives a static prefetch distance the way the APT-GET
// compiler does (§2, §4.1.1): profile one input, measure the hot loop's
// iteration latency, and pick the distance that spaces a prefetch one full
// memory latency ahead of its consumer:
//
//	d = ceil(memory latency / loop iteration latency)
//
// Like the real tool, it profiles the *unoptimized* loop — prefetching then
// shortens iterations, so the derived distance systematically undershoots
// the true optimum; that, plus the single profiled input, is exactly the
// fragility RPG² exists to fix.
func APTGETDistanceWorkload(w *workloads.Workload, m machine.Machine) (int, error) {
	bench, input := w.Name, w.InputName
	candidates, err := ProfileCandidates(w, m, 2.0)
	if err != nil {
		return 0, err
	}
	p, watch, err := LaunchWarm(w, w.Bin, m, candidates[:1], 1.5)
	if err != nil {
		return 0, err
	}
	win := perf.MeasureWatch(p, watch, m.Seconds(1.0), nil, 0)
	if win.Work == 0 {
		return 0, fmt.Errorf("baselines: apt-get profile of %s/%s observed no loop iterations", bench, input)
	}
	iterCycles := float64(win.Cycles) / float64(win.Work)
	d := int(float64(m.Cache.DRAM.Latency)/iterCycles + 0.999)
	if d < 1 {
		d = 1
	}
	if d > 100 {
		d = 100
	}
	return d, nil
}
