package cpu_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rpg2/internal/baselines"
	"rpg2/internal/cache"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/mem"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// refBudget is the simulated cycles each kernel runs under both
// interpreters: past init (a 2048-iteration touch loop) and well into the
// kernel.
const refBudget = 5_000_000

// TestRunUntilMatchesReference runs the nine bench kernels and a BOLT-built
// f₁ of is at two distances under RunUntil and under the parent's loop,
// RefRunUntil, each on its own fresh process, to the same random bounds,
// with a watch on the work load (f₀'s and f₁'s) and an OnLLCMiss hook on
// both. After every
// bound the two must agree on registers, PC, clock, retired count, Halted,
// Fault, the watch count, the hook's calls and all 13 cache.Stats.
func TestRunUntilMatchesReference(t *testing.T) {
	m := machine.CascadeLake()
	type kernel struct {
		name  string
		w     *workloads.Workload
		bin   *isa.Binary
		watch []int
	}
	var kernels []kernel
	for _, k := range []string{"is", "randacc", "cg", "bfs/soc-gamma", "sssp/gowalla-like",
		"pr/as20000102-like", "pr/ring-small", "sssp/as20000102-like", "pr/synth-small"} {
		bench, input, _ := strings.Cut(k, "/")
		w, err := workloads.Build(bench, input, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kernel{k, w, w.Bin, []int{w.WorkPC}})
	}
	is := kernels[0].w
	for _, d := range []int{4, 64} {
		pf, err := baselines.BuildPrefetched(is, []int{is.WorkPC}, d)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kernel{fmt.Sprintf("is/f1-d%d", d), is, pf.Bin, append([]int{is.WorkPC}, pf.WatchPCs...)})
	}
	rng := rand.New(rand.NewSource(29))
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			type side struct {
				p      *proc.Process
				watch  *cpu.Watch
				misses int
			}
			launch := func() *side {
				p, err := m.Launch(k.bin, k.w.Setup)
				if err != nil {
					t.Fatal(err)
				}
				s := &side{p: p, watch: cpu.NewWatch(k.watch)}
				core := p.MainThread().Core
				core.Watches = []*cpu.Watch{s.watch}
				core.OnLLCMiss = func(int, mem.Addr) { s.misses++ }
				return s
			}
			got, ref := launch(), launch()
			run := func(s *side, bound uint64, exec func(*cpu.Core, *cpu.Thread, []isa.Instr, *mem.AddrSpace, uint64) error) error {
				tc := s.p.MainThread()
				for tc.Thread.Runnable() && tc.Core.Now < bound {
					if err := exec(tc.Core, &tc.Thread, s.p.Text, s.p.AS, bound); err != nil {
						return err
					}
				}
				return nil
			}
			for bound := uint64(0); bound < refBudget; {
				bound += 1 + uint64(rng.Intn(40_000))
				gotErr := run(got, bound, (*cpu.Core).RunUntil)
				refErr := run(ref, bound, cpu.RefRunUntil)
				if (gotErr == nil) != (refErr == nil) {
					t.Fatalf("bound %d: RunUntil error %v, reference %v", bound, gotErr, refErr)
				}
				if g, r := snapshotOf(got.p, got.watch, got.misses), snapshotOf(ref.p, ref.watch, ref.misses); g != r {
					t.Fatalf("bound %d: RunUntil reached\n%+v\nthe reference\n%+v", bound, g, r)
				}
			}
			if !got.p.InitDone() || got.watch.Count == 0 {
				t.Fatalf("the run never reached the kernel: init %v, %d work loads", got.p.InitDone(), got.watch.Count)
			}
		})
	}
}

// snapshot is everything either interpreter leaves behind on a process's
// main thread, comparable.
type snapshot struct {
	regs         [isa.NumRegs]uint64
	pc           int
	now, retired uint64
	halted       bool
	faulted      bool
	fault        mem.Fault
	watched      uint64
	misses       int
	stats        cache.Stats
	initDone     bool
}

func snapshotOf(p *proc.Process, w *cpu.Watch, misses int) snapshot {
	tc := p.MainThread()
	s := snapshot{regs: tc.Thread.Regs, pc: tc.Thread.PC, now: tc.Core.Now, retired: tc.Core.Instructions,
		halted: tc.Thread.Halted, faulted: tc.Thread.Fault != nil, watched: w.Count, misses: misses,
		stats: tc.Core.Hierarchy().Stats(), initDone: p.InitDone()}
	if tc.Thread.Fault != nil {
		s.fault = *tc.Thread.Fault
	}
	return s
}

// TestLookAheadArmsMissKernelsOnly runs the nine bench kernels past init
// and through the repo benchmark's 10 simulated seconds of warm-up: each of
// the five LLC-missing kernels must have armed its work load's host
// look-ahead, and none of the four LLC-resident ones may have armed a load.
// The five missing kernels' f₁ binaries at distance 2, whose loops still
// miss but hold their own Prefetch, must arm nothing.
func TestLookAheadArmsMissKernelsOnly(t *testing.T) {
	m := machine.CascadeLake()
	armed := func(bin *isa.Binary, w *workloads.Workload) []int {
		p, _, err := baselines.LaunchWarm(w, bin, m, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		return cpu.ArmedPCs(p.MainThread().Core)
	}
	for i, k := range []string{"is", "randacc", "cg", "bfs/soc-gamma", "sssp/gowalla-like",
		"pr/as20000102-like", "pr/ring-small", "sssp/as20000102-like", "pr/synth-small"} {
		bench, input, _ := strings.Cut(k, "/")
		w, err := workloads.Build(bench, input, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		pcs := armed(w.Bin, w)
		if miss := i < 5; miss != slices.Contains(pcs, w.WorkPC) || !miss && len(pcs) > 0 {
			t.Errorf("%s: armed loads %v (work load %d); want the work load armed iff the kernel misses the LLC", k, pcs, w.WorkPC)
		}
		if i >= 5 {
			continue
		}
		pf, err := baselines.BuildPrefetched(w, []int{w.WorkPC}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if pcs := armed(pf.Bin, w); len(pcs) > 0 {
			t.Errorf("%s f1 at d=2: armed loads %v; want none in a loop that prefetches", k, pcs)
		}
	}
}
