package workloads_test

import (
	. "rpg2/internal/workloads"
	"strings"
	"testing"

	"rpg2/internal/baselines"
	"rpg2/internal/machine"
	"rpg2/internal/proc"
)

// launchAndRun starts a workload on the given machine and runs it for the
// given number of cycles, returning the process for inspection.
func launchAndRun(t *testing.T, bench, input string, m machine.Machine, cycles uint64) (*Workload, interface {
	InitDone() bool
	Clock() uint64
}) {
	t.Helper()
	w, err := Build(bench, input, 1<<30)
	if err != nil {
		t.Fatalf("Build(%s,%s): %v", bench, input, err)
	}
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	p.Run(cycles)
	return w, p
}

func TestAllBenchmarksExecute(t *testing.T) {
	m := machine.CascadeLake()
	cases := []struct {
		bench, input string
	}{
		{"pr", "soc-alpha"},
		{"bfs", "email-euall-like"},
		{"sssp", "as-skitter-like"},
		{"bc", "synth-u1"},
		{"is", ""},
		{"cg", ""},
		{"randacc", ""},
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			w, err := Build(tc.bench, tc.input, 1<<30)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := w.Bin.Validate(); err != nil {
				t.Fatalf("binary invalid: %v", err)
			}
			p, err := m.Launch(w.Bin, w.Setup)
			if err != nil {
				t.Fatalf("Launch: %v", err)
			}
			p.Run(3_000_000)
			if p.State().String() == "crashed" {
				ft := p.FaultedThread()
				t.Fatalf("workload crashed: %v (pc=%d)", ft.Thread.Fault, ft.Thread.PC)
			}
			if !p.InitDone() {
				t.Fatalf("init phase never signalled completion")
			}
			c := p.Counters()
			if c.Instructions == 0 || c.Cycles == 0 {
				t.Fatalf("no progress: %+v", c)
			}
			stats := p.Threads()[0].Core.Hierarchy().Stats()
			t.Logf("%s: %d instr, %d cycles, IPC=%.3f, LLC misses=%d (%.2f MPKI)",
				tc.bench, c.Instructions, c.Cycles,
				float64(c.Instructions)/float64(c.Cycles),
				stats.LLCMisses, 1000*float64(stats.LLCMisses)/float64(c.Instructions))
			if stats.DemandAccesses == 0 {
				t.Fatal("no memory accesses observed")
			}
			// Every benchmark's main phase is memory-intensive: its
			// indirect array exceeds the LLC, so misses must occur.
			if stats.LLCMisses == 0 {
				t.Fatalf("%s produced no LLC misses; prefetching would be moot", tc.bench)
			}
		})
	}
}

func TestSmallInputStaysCacheResident(t *testing.T) {
	m := machine.CascadeLake()
	w, err := Build("pr", "as20000102-like", 1<<30)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	p.Run(3_000_000)
	c := p.Counters()
	stats := p.Threads()[0].Core.Hierarchy().Stats()
	mpki := 1000 * float64(stats.LLCMisses) / float64(c.Instructions)
	t.Logf("small pr input: IPC=%.3f MPKI=%.3f", float64(c.Instructions)/float64(c.Cycles), mpki)
	if mpki > 5 {
		t.Fatalf("LLC-resident input shows MPKI=%.2f; expected <5 (prefetch-hostile case broken)", mpki)
	}
}

// BenchmarkInterpreterThroughput is the interpreter campaign's profile
// harness (EXPERIMENTS.md "Interpreter campaign"): the nine kernels of the
// repo benchmark's interp-miss and interp-hit workloads, each launched, run
// past init and warmed for 10 simulated seconds the way bench/ does, then
// timed over 2.5 sim-s slices of proc.Run. The f1 class runs six of them as
// baselines.BuildPrefetched binaries at a fixed distance d: f₁'s own path,
// where the prefetch kernel has already brought the worksite load's word
// into the host cache.
//
//	go test -run '^$' -bench 'InterpreterThroughput/miss' -cpuprofile cpu.prof ./internal/workloads
func BenchmarkInterpreterThroughput(b *testing.B) {
	m := machine.CascadeLake()
	for _, k := range []struct {
		class, bench, input string
		d                   int // f₁'s prefetch distance; 0 runs the kernel as built
	}{
		{"miss", "is", "", 0}, {"miss", "randacc", "", 0}, {"miss", "cg", "", 0},
		{"miss", "bfs", "soc-gamma", 0}, {"miss", "sssp", "gowalla-like", 0},
		{"hit", "pr", "as20000102-like", 0}, {"hit", "pr", "ring-small", 0},
		{"hit", "sssp", "as20000102-like", 0}, {"hit", "pr", "synth-small", 0},
		{"f1", "is", "", 16}, {"f1", "randacc", "", 16}, {"f1", "cg", "", 16},
		{"f1", "bfs", "soc-gamma", 8}, {"f1", "sssp", "gowalla-like", 8},
		{"f1", "pr", "as20000102-like", 8},
	} {
		b.Run(strings.TrimSuffix(k.class+"/"+k.bench+"-"+k.input, "-"), func(b *testing.B) {
			w, err := Build(k.bench, k.input, 1<<30)
			if err != nil {
				b.Fatalf("Build: %v", err)
			}
			bin := w.Bin
			if k.d > 0 {
				pf, err := baselines.BuildPrefetched(w, []int{w.WorkPC}, k.d)
				if err != nil {
					b.Fatalf("BuildPrefetched: %v", err)
				}
				bin = pf.Bin
			}
			p, _, err := baselines.LaunchWarm(w, bin, m, nil, 10)
			if err != nil {
				b.Fatal(err)
			}
			before := p.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(m.Seconds(2.5))
			}
			b.StopTimer()
			if p.State() != proc.Running {
				b.Fatalf("process is %v after the timed slices", p.State())
			}
			instr := p.Counters().Instructions - before.Instructions
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
		})
	}
}
