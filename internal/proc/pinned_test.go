package proc_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"rpg2/internal/baselines"
	"rpg2/internal/cache"
	"rpg2/internal/machine"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// pinned is the simulator state one run must reach: every thread's
// registers and PC digested, the process counters, the work watch, and all
// 13 hierarchy counters (the repo benchmark's "=" list omits the five
// prefetch-classification ones).
type pinned struct {
	Regs     uint64
	Counters proc.Counters
	Work     uint64
	Stats    cache.Stats
}

// pinnedBudget is the simulated seconds each pinned run lasts after init.
const pinnedBudget = 5.0

// pinnedF1Distance is the prefetch distance injected into is for the f₁ run.
const pinnedF1Distance = 16

// String renders the state as the Go literal pinnedWant holds.
func (p pinned) String() string {
	c, s := p.Counters, p.Stats
	return fmt.Sprintf("{Regs: %#x, Counters: proc.Counters{Cycles: %d, Instructions: %d}, Work: %d, Stats: cache.Stats{"+
		"DemandAccesses: %d, L1Hits: %d, L2Hits: %d, L3Hits: %d, MSHRHits: %d, DRAMFills: %d, LLCMisses: %d, "+
		"SWPrefetches: %d, HWPrefetches: %d, DroppedPF: %d, UselessPF: %d, TimelyPF: %d, LatePF: %d}}",
		p.Regs, c.Cycles, c.Instructions, p.Work,
		s.DemandAccesses, s.L1Hits, s.L2Hits, s.L3Hits, s.MSHRHits, s.DRAMFills, s.LLCMisses,
		s.SWPrefetches, s.HWPrefetches, s.DroppedPF, s.UselessPF, s.TimelyPF, s.LatePF)
}

func regsDigest(p *proc.Process) uint64 {
	h := fnv.New64a()
	for _, t := range p.Threads() {
		fmt.Fprintf(h, "%d:%d:%v:%v;", t.ID, t.Thread.PC, t.Thread.Halted, t.Thread.Regs)
	}
	return h.Sum64()
}

// runPinned launches bin over w's data with the given thread count, counts
// retirements of watchPCs, runs past init and then for pinnedBudget, and
// returns the state reached.
func runPinned(t *testing.T, m machine.Machine, w *workloads.Workload, pf *baselines.Prefetched, threads int) pinned {
	t.Helper()
	bin, watchPCs := w.Bin, []int{w.WorkPC}
	if pf != nil {
		bin, watchPCs = pf.Bin, append(watchPCs, pf.WatchPCs...)
	}
	p, err := m.Launch(bin, w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SpawnWorkers(p, threads); err != nil {
		t.Fatal(err)
	}
	watch := perf.AttachWatch(p, watchPCs)
	if err := baselines.RunUntilInit(p, m); err != nil {
		t.Fatal(err)
	}
	p.Run(m.Seconds(pinnedBudget))
	if st := p.State(); st != proc.Running {
		t.Fatalf("%s/%s is %v after the budget", w.Name, w.InputName, st)
	}
	return pinned{
		Regs:     regsDigest(p),
		Counters: p.Counters(),
		Work:     watch.Count,
		Stats:    p.MainThread().Core.Hierarchy().Stats(),
	}
}

// TestPinnedSimulatorState holds the interpreter to values captured at the
// commit before the interpreter campaign (4cd80c7): a miss kernel, a hit
// kernel, a software-prefetching f₁ build of is (its candidates found by a
// PEBS-sampled profiling run, so the OnLLCMiss path is pinned too), and a
// two-thread is run whose cores interleave on one hierarchy. The only
// values that differ from that capture are TimelyPF and UselessPF, which
// the late-prefetch double-count fix lowers; each such entry carries the
// parent's value in a comment.
func TestPinnedSimulatorState(t *testing.T) {
	for _, m := range machine.Both() {
		want := pinnedWant[m.Name]
		build := func(bench, input string) *workloads.Workload {
			w, err := workloads.Build(bench, input, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		check := func(name string, got pinned) {
			if got != want[name] {
				t.Errorf("%s %s:\n got  %s\n want %s", m.Name, name, got, want[name])
			}
		}
		check("bfs/soc-gamma", runPinned(t, m, build("bfs", "soc-gamma"), nil, 1))
		check("pr/ring-small", runPinned(t, m, build("pr", "ring-small"), nil, 1))

		is := build("is", "")
		candidates, err := baselines.ProfileCandidates(is, m, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := baselines.BuildPrefetched(is, candidates, pinnedF1Distance)
		if err != nil {
			t.Fatal(err)
		}
		check("is/f1", runPinned(t, m, is, pf, 1))
		check("is/2-threads", runPinned(t, m, is, nil, 2))
	}
}

var pinnedWant = map[string]map[string]pinned{
	"cascadelake": {
		"bfs/soc-gamma": {Regs: 0x7b3d90dfd21e8a5, Counters: proc.Counters{Cycles: 5050153, Instructions: 1050100}, Work: 66176, Stats: cache.Stats{DemandAccesses: 425384, L1Hits: 307266, L2Hits: 4517, L3Hits: 18807, MSHRHits: 20893, DRAMFills: 73901, LLCMisses: 94794, SWPrefetches: 0, HWPrefetches: 120800, DroppedPF: 0, UselessPF: 3246, TimelyPF: 7474, LatePF: 20893}}, // parent: UselessPF 3247, TimelyPF 28366
		"pr/ring-small": {Regs: 0x3149f72b7b5ff57f, Counters: proc.Counters{Cycles: 5050001, Instructions: 3490837}, Work: 387188, Stats: cache.Stats{DemandAccesses: 1937986, L1Hits: 1930871, L2Hits: 70, L3Hits: 266, MSHRHits: 257, DRAMFills: 6522, LLCMisses: 6779, SWPrefetches: 0, HWPrefetches: 436468, DroppedPF: 0, UselessPF: 4, TimelyPF: 102820, LatePF: 257}},        // parent: UselessPF 4, TimelyPF 103077
		"is/f1":         {Regs: 0xa89704380732f5f8, Counters: proc.Counters{Cycles: 5050000, Instructions: 3245383}, Work: 269936, Stats: cache.Stats{DemandAccesses: 1081792, L1Hits: 1052136, L2Hits: 3424, L3Hits: 25873, MSHRHits: 252, DRAMFills: 107, LLCMisses: 359, SWPrefetches: 269936, HWPrefetches: 270924, DroppedPF: 0, UselessPF: 0, TimelyPF: 274051, LatePF: 252}}, // parent: UselessPF 0, TimelyPF 274303
		"is/2-threads":  {Regs: 0x1d7625a7168483c7, Counters: proc.Counters{Cycles: 5050196, Instructions: 808094}, Work: 132632, Stats: cache.Stats{DemandAccesses: 401994, L1Hits: 252923, L2Hits: 1355, L3Hits: 12918, MSHRHits: 335, DRAMFills: 134463, LLCMisses: 134798, SWPrefetches: 0, HWPrefetches: 1640, DroppedPF: 0, UselessPF: 5, TimelyPF: 172, LatePF: 335}},        // parent: UselessPF 5, TimelyPF 507
	},
	"haswell": {
		"bfs/soc-gamma": {Regs: 0x215f9719debdee38, Counters: proc.Counters{Cycles: 5050018, Instructions: 816550}, Work: 37128, Stats: cache.Stats{DemandAccesses: 323134, L1Hits: 247513, L2Hits: 939, L3Hits: 6506, MSHRHits: 21584, DRAMFills: 46592, LLCMisses: 68176, SWPrefetches: 0, HWPrefetches: 53976, DroppedPF: 0, UselessPF: 922, TimelyPF: 4441, LatePF: 21584}},          // parent: UselessPF 923, TimelyPF 26024
		"pr/ring-small": {Regs: 0xdadc86e64cdfe072, Counters: proc.Counters{Cycles: 5050001, Instructions: 3146364}, Work: 348913, Stats: cache.Stats{DemandAccesses: 1746612, L1Hits: 1674670, L2Hits: 1, L3Hits: 128, MSHRHits: 65820, DRAMFills: 5993, LLCMisses: 71813, SWPrefetches: 0, HWPrefetches: 196710, DroppedPF: 0, UselessPF: 2, TimelyPF: 27092, LatePF: 65820}},          // parent: UselessPF 2, TimelyPF 92911
		"is/f1":         {Regs: 0x52c63f2c07bfe57b, Counters: proc.Counters{Cycles: 5050001, Instructions: 2381530}, Work: 197948, Stats: cache.Stats{DemandAccesses: 793841, L1Hits: 727011, L2Hits: 775, L3Hits: 9674, MSHRHits: 4182, DRAMFills: 52199, LLCMisses: 56381, SWPrefetches: 197948, HWPrefetches: 99470, DroppedPF: 56726, UselessPF: 2, TimelyPF: 155555, LatePF: 4182}}, // parent: UselessPF 2, TimelyPF 159737
		"is/2-threads":  {Regs: 0x472a0a330c123544, Counters: proc.Counters{Cycles: 5050086, Instructions: 691924}, Work: 113272, Stats: cache.Stats{DemandAccesses: 343910, L1Hits: 216488, L2Hits: 373, L3Hits: 5488, MSHRHits: 346, DRAMFills: 121215, LLCMisses: 121561, SWPrefetches: 0, HWPrefetches: 818, DroppedPF: 0, UselessPF: 4, TimelyPF: 96, LatePF: 346}},                 // parent: UselessPF 4, TimelyPF 442
	},
}
