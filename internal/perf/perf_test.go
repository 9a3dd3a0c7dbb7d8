package perf_test

import (
	"math/rand"
	"slices"
	"testing"

	"rpg2/internal/cache"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/mem"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// launchPR starts a miss-heavy pr workload for profiling tests.
func launchPR(t *testing.T) (*workloads.Workload, machine.Machine, func() error) {
	t.Helper()
	m := machine.CascadeLake()
	w, err := workloads.Build("pr", "soc-alpha", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return w, m, nil
}

func TestSamplerPeriodAndRecords(t *testing.T) {
	w, m, _ := launchPR(t)
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	s := perf.NewSampler(4, 1000)
	s.Attach(p)
	// Count every miss event, sampled or not.
	seen := perMiss(p)
	p.Run(500_000)
	s.Detach()
	if *seen == 0 {
		t.Fatal("no LLC-miss events observed")
	}
	// The sampling gap is randomized around the period, so the count is
	// approximate: within 25% of seen/period (or at the buffer cap).
	want := float64(*seen) / 4
	got := len(s.Records())
	if got == 1000 {
		want = 1000
	}
	if float64(got) < 0.75*want || float64(got) > 1.25*want {
		t.Fatalf("records = %d, want ~%.0f (seen %d)", got, want, *seen)
	}
	// Records carry both a PC and an address.
	for _, r := range s.Records()[:10] {
		if r.Addr == 0 {
			t.Fatal("record with zero address")
		}
		if _, ok := p.FuncAt(r.PC); !ok {
			t.Fatalf("record PC %d not in any function", r.PC)
		}
	}
	// After detach, no more records accumulate.
	p.Run(100_000)
	if len(s.Records()) != got {
		t.Fatal("sampler still recording after detach")
	}
}

// perMiss moves the attached sampler's gap count out of the process's cores
// and into their hook, which sees every LLC miss, counts it, and hands the
// sampler the miss that runs the gap out: the sampler as it was before the
// cores counted its gap. It returns the count of misses seen.
func perMiss(p *proc.Process) *uint64 {
	seen := new(uint64)
	for _, th := range p.Threads() {
		observe, gap := th.Core.OnLLCMiss, th.Core.MissGap
		th.Core.MissGap = nil
		th.Core.OnLLCMiss = func(pc int, addr mem.Addr) {
			*seen++
			if *gap--; *gap == 0 {
				observe(pc, addr)
			}
		}
	}
	return seen
}

// TestSamplerMatchesPerMissReference profiles the same run twice at periods
// 1, 2, 8 and 16: once with the cores counting the sampler's gap, and once
// with the per-miss hook of perMiss as the reference. The records, and the
// process's clock, retired count, registers and cache counters after each
// stretch, must be identical.
func TestSamplerMatchesPerMissReference(t *testing.T) {
	w, m, _ := launchPR(t)
	for _, period := range []uint64{1, 2, 8, 16} {
		type side struct {
			p *proc.Process
			s *perf.Sampler
		}
		launch := func(reference bool) side {
			p, err := m.Launch(w.Bin, w.Setup)
			if err != nil {
				t.Fatal(err)
			}
			s := perf.NewSampler(period, 1<<16)
			s.Attach(p)
			if reference {
				perMiss(p)
			}
			return side{p, s}
		}
		got, ref := launch(false), launch(true)
		state := func(x side) any {
			tc := x.p.MainThread()
			return struct {
				c    proc.Counters
				regs [isa.NumRegs]uint64
				pc   int
				st   cache.Stats
			}{x.p.Counters(), tc.Thread.Regs, tc.Thread.PC, tc.Core.Hierarchy().Stats()}
		}
		for i := 0; i < 8; i++ {
			got.p.Run(100_000)
			ref.p.Run(100_000)
			if g, r := state(got), state(ref); g != r {
				t.Fatalf("period %d, stretch %d: the core-counted gap left\n%+v\nthe reference\n%+v", period, i, g, r)
			}
		}
		if len(ref.s.Records()) == 0 || !slices.Equal(got.s.Records(), ref.s.Records()) {
			t.Fatalf("period %d: %d records, want the reference's %d, equal", period, len(got.s.Records()), len(ref.s.Records()))
		}
	}
}

func TestAggregateByPCSharesSumToOne(t *testing.T) {
	w, m, _ := launchPR(t)
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	s := perf.NewSampler(2, 1<<16)
	s.Attach(p)
	p.Run(800_000)
	s.Detach()
	sites := perf.AggregateByPC(s.Records(), p)
	if len(sites) == 0 {
		t.Fatal("no miss sites")
	}
	// Sites must be sorted by descending count, and per-function shares
	// must sum to ~1.
	byFn := make(map[string]float64)
	for i, site := range sites {
		if i > 0 && site.Count > sites[i-1].Count {
			t.Fatal("sites not sorted by count")
		}
		byFn[site.FuncName] += site.Share
	}
	for fn, sum := range byFn {
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("function %q shares sum to %f", fn, sum)
		}
	}
	// The hottest site must be in the kernel (the rank gather).
	if sites[0].FuncName != workloads.KernelFunc {
		t.Fatalf("hottest site in %q, want kernel", sites[0].FuncName)
	}
	if sites[0].Share < 0.5 {
		t.Fatalf("dominant site share %.2f, expected the rank load to dominate", sites[0].Share)
	}
}

func TestMeasureWindowsAndWatch(t *testing.T) {
	w, m, _ := launchPR(t)
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(200_000)
	watch := perf.AttachWatch(p, []int{w.WorkPC})
	win := perf.MeasureWatch(p, watch, 300_000, nil, 0)
	if win.Cycles < 300_000 {
		t.Fatalf("window cycles = %d", win.Cycles)
	}
	if win.IPC <= 0 || win.IPC > 2 {
		t.Fatalf("IPC = %f", win.IPC)
	}
	if win.Work == 0 || win.Rate <= 0 {
		t.Fatalf("work = %d rate = %f", win.Work, win.Rate)
	}
	if win.MPKI <= 0 {
		t.Fatalf("MPKI = %f; pr on a large input must miss", win.MPKI)
	}
	// A second watch counts independently.
	w2 := perf.AttachWatch(p, []int{w.WorkPC, w.WorkPC - 1})
	win2 := perf.MeasureWatch(p, w2, 300_000, nil, 0)
	if win2.Work <= win.Work/2 {
		t.Fatalf("two-site watch should count at least as much: %d", win2.Work)
	}
	if got := len(perf.Watches(p)); got != 2 {
		t.Fatalf("watches attached = %d", got)
	}
	perf.DetachWatch(p, w2)
	if got := len(perf.Watches(p)); got != 1 {
		t.Fatalf("watches after detach = %d", got)
	}
}

func TestMeasureNoiseIsBoundedAndSeeded(t *testing.T) {
	w, m, _ := launchPR(t)
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(300_000)
	watch := perf.AttachWatch(p, []int{w.WorkPC})
	clean := perf.MeasureWatch(p, watch, 200_000, nil, 0)
	noisy := perf.MeasureWatch(p, watch, 200_000, rand.New(rand.NewSource(1)), 0.01)
	if noisy.IPC <= 0 {
		t.Fatal("noise must not zero out IPC")
	}
	rel := noisy.IPC/clean.IPC - 1
	if rel > 0.2 || rel < -0.2 {
		t.Fatalf("1%% noise produced %.0f%% deviation", 100*rel)
	}
}
