package cpu

import (
	"math/rand"
	"testing"
	"unsafe"

	"rpg2/internal/cache"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

func testHier() *cache.Hierarchy {
	return cache.New(cache.Config{
		L1:   cache.LevelConfig{Name: "L1d", Lines: 8, Assoc: 2, Latency: 1},
		L2:   cache.LevelConfig{Name: "L2", Lines: 16, Assoc: 2, Latency: 10},
		L3:   cache.LevelConfig{Name: "L3", Lines: 32, Assoc: 4, Latency: 30},
		DRAM: cache.DRAMConfig{Latency: 100, ServiceCycles: 4, MSHRs: 8},
	})
}

// runProgram assembles one function, executes it to completion, and returns
// the core, thread, and address space for inspection.
func runProgram(t *testing.T, build func(a *isa.Asm), setup func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64), cfg Config) (*Core, *Thread, *mem.AddrSpace) {
	t.Helper()
	a := isa.NewAsm("main")
	build(a)
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	as := mem.NewAddrSpace()
	th := &Thread{}
	stack := as.Alloc("stack", 64)
	th.Regs[isa.SP] = stack.End()
	if setup != nil {
		setup(as, &th.Regs)
	}
	core := New(cfg, testHier())
	for i := 0; i < 100000 && th.Runnable(); i++ {
		if err := core.Step(th, bin.Text, as); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	return core, th, as
}

func TestALUOpcodes(t *testing.T) {
	_, th, _ := runProgram(t, func(a *isa.Asm) {
		a.MovImm(0, 10)
		a.MovImm(1, 3)
		a.Add(2, 0, 1)    // 13
		a.Sub(3, 0, 1)    // 7
		a.Mul(4, 0, 1)    // 30
		a.AddImm(5, 0, 5) // 15
		a.SubImm(6, 0, 4) // 6
		a.MulImm(7, 1, 7) // 21
		a.ShrImm(8, 0, 1) // 5
		a.AndImm(9, 0, 6) // 2
		a.Min(10, 0, 1)   // 3
		a.Mov(11, 2)      // 13
		a.Halt()
	}, nil, Config{MLP: 2})
	want := map[isa.Reg]uint64{2: 13, 3: 7, 4: 30, 5: 15, 6: 6, 7: 21, 8: 5, 9: 2, 10: 3, 11: 13}
	for r, v := range want {
		if th.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, th.Regs[r], v)
		}
	}
	if !th.Halted {
		t.Fatal("program did not halt")
	}
}

func TestLoadStoreAndBranchLoop(t *testing.T) {
	// Sum array of 10 elements.
	_, th, _ := runProgram(t, func(a *isa.Asm) {
		a.MovImm(1, 0) // i
		a.MovImm(2, 0) // sum
		a.Label("loop")
		a.LoadIdx(3, 0, 1, 0)
		a.Add(2, 2, 3)
		a.AddImm(1, 1, 1)
		a.BrImm(isa.LT, 1, 10, "loop")
		a.Store(4, 0, 2) // out[0] = sum
		a.Halt()
	}, func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		data := make([]uint64, 10)
		for i := range data {
			data[i] = uint64(i + 1)
		}
		regs[0] = as.Map("data", data).Base
		regs[4] = as.Alloc("out", 1).Base
	}, Config{MLP: 2})
	if th.Regs[2] != 55 {
		t.Fatalf("sum = %d, want 55", th.Regs[2])
	}
}

func TestCallRetAndStack(t *testing.T) {
	a1 := isa.NewAsm("main")
	a1.MovImm(0, 21)
	a1.Call("double")
	a1.Halt()
	a2 := isa.NewAsm("double")
	a2.Push(1)
	a2.MovImm(1, 2)
	a2.Mul(0, 0, 1)
	a2.Pop(1)
	a2.Ret()
	bin, err := isa.NewProgram("main").Add(a1).Add(a2).Link()
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddrSpace()
	th := &Thread{}
	stack := as.Alloc("stack", 64)
	th.Regs[isa.SP] = stack.End()
	th.Regs[1] = 0xDEAD
	core := New(Config{MLP: 2}, testHier())
	for th.Runnable() {
		if err := core.Step(th, bin.Text, as); err != nil {
			t.Fatal(err)
		}
	}
	if th.Regs[0] != 42 {
		t.Fatalf("r0 = %d, want 42", th.Regs[0])
	}
	if th.Regs[1] != 0xDEAD {
		t.Fatal("callee did not restore the spilled register")
	}
	if th.Regs[isa.SP] != stack.End() {
		t.Fatal("stack pointer not balanced")
	}
}

func TestLoadFaultKillsThread(t *testing.T) {
	_, th, _ := runProgram(t, func(a *isa.Asm) {
		a.MovImm(0, 0) // address 0 is never mapped
		a.Load(1, 0, 0)
		a.Halt()
	}, nil, Config{MLP: 2})
	if th.Fault == nil {
		t.Fatal("load from unmapped memory must fault")
	}
	if th.Runnable() {
		t.Fatal("faulted thread must not be runnable")
	}
}

func TestPrefetchNeverFaults(t *testing.T) {
	_, th, _ := runProgram(t, func(a *isa.Asm) {
		a.MovImm(0, 0)
		a.Prefetch(0, 0) // unmapped: silently dropped
		a.MovImm(2, 99)
		a.Halt()
	}, nil, Config{MLP: 2})
	if th.Fault != nil {
		t.Fatalf("prefetch faulted: %v", th.Fault)
	}
	if th.Regs[2] != 99 {
		t.Fatal("execution did not continue after prefetch")
	}
}

func TestInitDoneCallback(t *testing.T) {
	fired := false
	a := isa.NewAsm("main")
	a.InitDone()
	a.Halt()
	bin, _ := isa.NewProgram("main").Add(a).Link()
	as := mem.NewAddrSpace()
	th := &Thread{}
	core := New(Config{MLP: 1}, testHier())
	core.OnInitDone = func() { fired = true }
	for th.Runnable() {
		core.Step(th, bin.Text, as)
	}
	if !fired {
		t.Fatal("InitDone callback not invoked")
	}
}

func TestWatchCountsOnlyItsPCs(t *testing.T) {
	w1 := NewWatch([]int{1})
	w2 := NewWatch([]int{2, 3})
	a := isa.NewAsm("main")
	a.MovImm(0, 0) // pc 0
	a.MovImm(1, 0) // pc 1
	a.MovImm(2, 0) // pc 2
	a.MovImm(3, 0) // pc 3
	a.Halt()
	bin, _ := isa.NewProgram("main").Add(a).Link()
	as := mem.NewAddrSpace()
	th := &Thread{}
	core := New(Config{MLP: 1}, testHier())
	core.Watches = []*Watch{w1, w2}
	for th.Runnable() {
		core.Step(th, bin.Text, as)
	}
	if w1.Count != 1 || w2.Count != 2 {
		t.Fatalf("watch counts: %d, %d; want 1, 2", w1.Count, w2.Count)
	}
}

func TestWatchExtendDeduplicates(t *testing.T) {
	w := NewWatch([]int{1, 2})
	w.Extend([]int{2, 3})
	if len(w.PCs) != 3 {
		t.Fatalf("PCs = %v, want 3 unique entries", w.PCs)
	}
}

// TestMLPOverlapsMisses checks the core of the timing model: with a wider
// MLP window, a burst of independent misses costs fewer cycles.
func TestMLPOverlapsMisses(t *testing.T) {
	run := func(mlp int) uint64 {
		core, _, _ := runProgram(t, func(a *isa.Asm) {
			// 8 loads to distinct lines, no dependencies.
			for i := 0; i < 8; i++ {
				a.Load(1, 0, int64(i*64))
			}
			a.Halt()
		}, func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
			regs[0] = as.Alloc("data", 4096).Base
		}, Config{MLP: mlp})
		return core.Now
	}
	serial := run(1)
	overlapped := run(8)
	if overlapped > serial/2 {
		t.Fatalf("MLP=8 (%d cycles) should be far cheaper than MLP=1 (%d cycles)", overlapped, serial)
	}
	// MLP=1 keeps one miss in flight while the next issues, so a burst of
	// n misses costs roughly (n-1) full latencies.
	if serial < 7*50 {
		t.Fatalf("MLP=1 should serialize misses, got only %d cycles", serial)
	}
}

func TestStepOnHaltedThreadErrors(t *testing.T) {
	core := New(Config{MLP: 1}, testHier())
	th := &Thread{Halted: true}
	if err := core.Step(th, nil, nil); err == nil {
		t.Fatal("stepping a halted thread must error")
	}
}

func TestPCOutOfRangeFaults(t *testing.T) {
	core := New(Config{MLP: 1}, testHier())
	th := &Thread{PC: 99}
	if err := core.Step(th, make([]isa.Instr, 5), mem.NewAddrSpace()); err == nil {
		t.Fatal("out-of-range PC must error")
	}
	if th.Fault == nil {
		t.Fatal("out-of-range PC must record a fault")
	}
}

func TestIPCAccounting(t *testing.T) {
	core, _, _ := runProgram(t, func(a *isa.Asm) {
		for i := 0; i < 10; i++ {
			a.MovImm(0, int64(i))
		}
		a.Halt()
	}, nil, Config{MLP: 1})
	if core.Instructions != 11 {
		t.Fatalf("instructions = %d, want 11", core.Instructions)
	}
	if core.Now < core.Instructions {
		t.Fatalf("%d instructions in %d cycles: more than one per cycle", core.Instructions, core.Now)
	}
}

// missLoop is a loop of loads that walk a large array a line at a time (so
// most of them miss), with a store and ALU work between.
func missLoop(t *testing.T) (*isa.Binary, func() (*Core, *Thread, *mem.AddrSpace)) {
	t.Helper()
	a := isa.NewAsm("main")
	a.MovImm(1, 0)
	a.InitDone()
	a.Label("loop")
	a.Load(2, 0, 0)
	a.Add(3, 3, 2)
	a.Store(0, 1, 3)
	a.AddImm(0, 0, 24)
	a.AddImm(1, 1, 1)
	a.BrImm(isa.LT, 1, 400, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return bin, func() (*Core, *Thread, *mem.AddrSpace) {
		as := mem.NewAddrSpace()
		data := as.Alloc("data", 400*24+8)
		for i := range data.Data {
			data.Data[i] = uint64(i) * 7
		}
		th := &Thread{}
		th.Regs[0] = data.Base
		return New(Config{MLP: 2, BranchCost: 1}, testHier()), th, as
	}
}

// clock is what RunUntil holds in locals while it runs.
type clock struct {
	now, instructions uint64
	pc                int
}

func clockOf(c *Core, t *Thread) clock { return clock{c.Now, c.Instructions, t.PC} }

// exitProgram is a short program that leaves RunUntil by one of its exits,
// and the clock that exit must write back. Each starts with a taken jump
// (one cycle of BranchCost, so the clock and the retired count differ) and a
// MovImm: clock{3, 2, 2} on the way into its third instruction.
type exitProgram struct {
	name    string
	text    []isa.Instr
	want    clock
	fault   *mem.Fault // nil for a clean Halt
	wantErr bool
}

func exitPrograms(t *testing.T) []exitProgram {
	t.Helper()
	link := func(tail func(a *isa.Asm)) []isa.Instr {
		a := isa.NewAsm("main")
		a.Jmp("next")
		a.Label("next")
		a.MovImm(0, 0) // address 0 is never mapped
		tail(a)
		bin, err := isa.NewProgram("main").Add(a).Link()
		if err != nil {
			t.Fatalf("link: %v", err)
		}
		return bin.Text
	}
	prefix := link(func(*isa.Asm) {})
	return []exitProgram{
		// The first four have retired the instruction that ends them: the
		// PC is already past it.
		{name: "load fault", text: link(func(a *isa.Asm) { a.Load(1, 0, 0).Halt() }),
			want: clock{4, 3, 3}, fault: &mem.Fault{Addr: 0}},
		{name: "store fault", text: link(func(a *isa.Asm) { a.Store(0, 0, 1).Halt() }),
			want: clock{4, 3, 3}, fault: &mem.Fault{Addr: 0, Write: true}},
		{name: "halt", text: link(func(a *isa.Asm) { a.Halt() }), want: clock{4, 3, 3}},
		{name: "unknown opcode", text: append(prefix[:2:2], isa.Instr{Op: isa.Op(250)}, isa.MakeNop()),
			want: clock{4, 3, 3}, fault: &mem.Fault{Addr: 2}, wantErr: true},
		// A PC outside the text retires nothing and stays where it is.
		{name: "pc outside text", text: prefix,
			want: clock{3, 2, 2}, fault: &mem.Fault{Addr: 2}, wantErr: true},
	}
}

// Every exit of RunUntil writes the clock back, to the values the
// interpreter left there when c.Now, c.Instructions and t.PC were updated in
// place, whether it is entered once or once per instruction.
func TestRunUntilWritesBackOnEveryExit(t *testing.T) {
	for _, p := range exitPrograms(t) {
		for name, exec := range map[string]func(*Core, *Thread) error{
			"RunUntil": func(c *Core, th *Thread) error { return c.RunUntil(th, p.text, mem.NewAddrSpace(), 1<<40) },
			"Step": func(c *Core, th *Thread) (err error) {
				for err == nil && th.Runnable() {
					err = c.Step(th, p.text, mem.NewAddrSpace())
				}
				return err
			},
		} {
			core, th := New(Config{MLP: 2, BranchCost: 1}, testHier()), &Thread{}
			err := exec(core, th)
			if (err != nil) != p.wantErr {
				t.Errorf("%s by %s: error %v, want one: %v", p.name, name, err, p.wantErr)
			}
			if got := clockOf(core, th); got != p.want {
				t.Errorf("%s by %s: left %+v, want %+v", p.name, name, got, p.want)
			}
			if th.Runnable() || th.Halted != (p.fault == nil) || (p.fault != nil && (th.Fault == nil || *th.Fault != *p.fault)) {
				t.Errorf("%s by %s: thread %+v (fault %+v), want fault %+v", p.name, name, th, th.Fault, p.fault)
			}
		}
	}
}

// A hook runs with the clock written back: inside OnInitDone and OnLLCMiss
// the core and the thread show what they show when the instruction has
// retired, which Step exposes by returning there. A watch over every PC is
// the retired count's independent witness.
func TestHooksObserveWrittenBackClock(t *testing.T) {
	bin, fresh := missLoop(t)
	everyPC := make([]int, len(bin.Text))
	for pc := range everyPC {
		everyPC[pc] = pc
	}
	// run executes the loop to Halt by the given driver and returns the
	// clock each hook saw.
	run := func(step bool) (seen []clock) {
		core, th, as := fresh()
		w := NewWatch(everyPC)
		core.Watches = []*Watch{w}
		hook := func(pc int) {
			got := clockOf(core, th)
			if got.pc != pc+1 || got.instructions != w.Count {
				t.Fatalf("hook at pc %d, %d retired: sees %+v", pc, w.Count, got)
			}
			seen = append(seen, got)
		}
		core.OnInitDone = func() { hook(1) }
		core.OnLLCMiss = func(pc int, _ mem.Addr) { hook(pc) }
		for th.Runnable() {
			before := len(seen)
			var err error
			if step {
				err = core.Step(th, bin.Text, as)
			} else {
				err = core.RunUntil(th, bin.Text, as, 1<<40)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Nothing runs between a hook and the return after it.
			if len(seen) > before && seen[len(seen)-1] != clockOf(core, th) {
				t.Fatalf("hook saw %+v, the call returned at %+v", seen[len(seen)-1], clockOf(core, th))
			}
		}
		return seen
	}
	byStep, byRun := run(true), run(false)
	if len(byStep) < 100 || byStep[0] != (clock{2, 2, 2}) {
		t.Fatalf("%d hooks, the first (InitDone at pc 1) at %+v", len(byStep), byStep[0])
	}
	if len(byRun) != len(byStep) {
		t.Fatalf("%d hooks by RunUntil, %d by Step", len(byRun), len(byStep))
	}
	for i := range byStep {
		if byRun[i] != byStep[i] {
			t.Fatalf("hook %d: RunUntil shows %+v, Step %+v", i, byRun[i], byStep[i])
		}
	}
}

// RunUntil is the same interpreter as Step: at every bound the two reach
// the same registers, clock, retirement count, watch count and cache stats,
// on the miss loop, on every program that leaves by a fault or a Halt, and
// when a hook stops the run in the middle of a quantum.
func TestRunUntilMatchesReferenceStep(t *testing.T) {
	type program struct {
		name  string
		text  []isa.Instr
		fresh func() (*Core, *Thread, *mem.AddrSpace)
		// stopAt, if not zero, installs an OnLLCMiss hook on which the
		// driver stops for good at that miss, as a tracer's stop does.
		stopAt int
	}
	bin, fresh := missLoop(t)
	programs := []program{{name: "miss loop", text: bin.Text, fresh: fresh},
		{name: "miss loop, hooked", text: bin.Text, fresh: fresh, stopAt: 1 << 30},
		{name: "miss loop, stopped at the 37th miss", text: bin.Text, fresh: fresh, stopAt: 37}}
	for _, p := range exitPrograms(t) {
		programs = append(programs, program{name: p.name, text: p.text, fresh: func() (*Core, *Thread, *mem.AddrSpace) {
			return New(Config{MLP: 2, BranchCost: 1}, testHier()), &Thread{}, mem.NewAddrSpace()
		}})
	}
	for _, p := range programs {
		for _, bound := range []uint64{1, 2, 3, 4, 7, 100, 1001, 5000, 1 << 40} {
			stepCore, stepTh, stepAS := p.fresh()
			runCore, runTh, runAS := p.fresh()
			stepW, runW := NewWatch([]int{3, 5}), NewWatch([]int{3, 5})
			stepCore.Watches, runCore.Watches = []*Watch{stepW}, []*Watch{runW}
			stepMisses, runMisses := 0, 0
			if p.stopAt != 0 {
				stepCore.OnLLCMiss = func(int, mem.Addr) { stepMisses++ }
				runCore.OnLLCMiss = func(int, mem.Addr) { runMisses++ }
			}
			var stepErr, runErr error
			for stepErr == nil && stepTh.Runnable() && stepCore.Now < bound && (p.stopAt == 0 || stepMisses != p.stopAt) {
				stepErr = stepCore.Step(stepTh, p.text, stepAS)
			}
			// The caller's loop of proc.Run: RunUntil comes back after a hook.
			for runErr == nil && runTh.Runnable() && runCore.Now < bound && (p.stopAt == 0 || runMisses != p.stopAt) {
				runErr = runCore.RunUntil(runTh, p.text, runAS, bound)
			}
			if (runErr == nil) != (stepErr == nil) {
				t.Fatalf("%s, bound %d: RunUntil error %v, Step error %v", p.name, bound, runErr, stepErr)
			}
			// Everything either driver can have left behind, comparable.
			type state struct {
				regs    [isa.NumRegs]uint64
				clock   clock
				halted  bool
				fault   mem.Fault
				watched uint64
				misses  int
				stats   cache.Stats
			}
			snapshot := func(c *Core, th *Thread, w *Watch, misses int) state {
				st := state{regs: th.Regs, clock: clockOf(c, th), halted: th.Halted, watched: w.Count, misses: misses, stats: c.Hierarchy().Stats()}
				if th.Fault != nil {
					st.fault = *th.Fault
				}
				return st
			}
			if run, step := snapshot(runCore, runTh, runW, runMisses), snapshot(stepCore, stepTh, stepW, stepMisses); run != step || (runTh.Fault == nil) != (stepTh.Fault == nil) {
				t.Fatalf("%s, bound %d: RunUntil reached %+v, Step %+v", p.name, bound, run, step)
			}
			if bound == 1<<40 && p.stopAt == 37 && (runMisses != 37 || runTh.Halted) {
				t.Fatalf("%s: stopped after %d misses, halted %v", p.name, runMisses, runTh.Halted)
			}
			if bound == 1<<40 && p.stopAt != 37 && runTh.Runnable() {
				t.Fatalf("%s: an unbounded RunUntil must run to the program's end", p.name)
			}
		}
	}
}

// A hook may stop the process, grow the text or change the watches, so
// RunUntil hands control back after every instruction that fired one.
func TestRunUntilReturnsAfterEveryHook(t *testing.T) {
	bin, fresh := missLoop(t)
	core, th, as := fresh()
	hooks, calls := 0, 0
	core.OnInitDone = func() { hooks++ }
	core.OnLLCMiss = func(pc int, addr mem.Addr) {
		if pc != 2 {
			t.Fatalf("LLC miss attributed to pc %d, want the load at 2", pc)
		}
		hooks++
	}
	for th.Runnable() {
		before := hooks
		if err := core.RunUntil(th, bin.Text, as, 1<<40); err != nil {
			t.Fatal(err)
		}
		calls++
		if hooks-before > 1 {
			t.Fatalf("RunUntil ran on past a hook: %d fired in one call", hooks-before)
		}
		if hooks == before && th.Runnable() {
			t.Fatal("RunUntil returned early with no hook, below bound, on a runnable thread")
		}
	}
	if hooks < 100 || calls != hooks+1 {
		t.Fatalf("%d hooks over %d calls; want one call per hook and one to Halt", hooks, calls)
	}
}

// A load that missed the LLC retires the value its word held before the
// OnLLCMiss hook ran, even when the hook writes that word through the
// address space; the hook's write stands for the next load.
func TestLoadValueReadBeforeHook(t *testing.T) {
	a := isa.NewAsm("main")
	a.Load(1, 0, 0)       // misses; the hook overwrites the word
	a.LoadIdx(2, 0, 3, 0) // the indexed form, on another line
	a.Load(4, 0, 0)       // hits, and reads what the hook wrote
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	as := mem.NewAddrSpace()
	data := as.Alloc("data", 128)
	data.Data[0], data.Data[64] = 11, 22
	th := &Thread{}
	th.Regs[0], th.Regs[3] = data.Base, 64
	core := New(Config{MLP: 2}, testHier())
	var missed []mem.Addr
	core.OnLLCMiss = func(_ int, addr mem.Addr) {
		missed = append(missed, addr)
		if !as.Write(addr, 1000+addr) {
			t.Fatalf("hook could not write %#x", addr)
		}
	}
	for th.Runnable() {
		if err := core.RunUntil(th, bin.Text, as, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	if len(missed) != 2 || missed[0] != data.Base || missed[1] != data.Base+64 {
		t.Fatalf("hook saw misses at %#x; want the two first loads", missed)
	}
	if th.Regs[1] != 11 || th.Regs[2] != 22 {
		t.Fatalf("loads retired r1=%d r2=%d; want the pre-hook values 11 and 22", th.Regs[1], th.Regs[2])
	}
	if want := 1000 + data.Base; th.Regs[4] != want {
		t.Fatalf("reload read r4=%d; want the hook's %d", th.Regs[4], want)
	}
}

func TestRunUntilOnStoppedThreadOrPastBound(t *testing.T) {
	bin, fresh := missLoop(t)
	core, th, as := fresh()
	core.Now = 50
	if err := core.RunUntil(th, bin.Text, as, 50); err != nil || core.Instructions != 0 {
		t.Fatalf("RunUntil at its bound retired %d instructions, err %v", core.Instructions, err)
	}
	th.Halted = true
	if err := core.RunUntil(th, bin.Text, as, 1000); err != nil || core.Instructions != 0 {
		t.Fatalf("RunUntil on a halted thread retired %d instructions, err %v", core.Instructions, err)
	}
}

// An unknown opcode is code a tracer poked wrong: it must read as a crash
// at that PC, not as a clean exit. So is a register field naming no
// register, which once indexed the host's register array out of range.
func TestIllegalInstructionFaults(t *testing.T) {
	for _, bad := range []isa.Instr{
		{Op: isa.Op(250)},
		{Op: isa.Add, Rd: 20, Rs1: 1, Rs2: 2},
		{Op: isa.Load, Rd: 1, Rs1: 2, Rs2: 16},
		{Op: isa.Br, Cond: isa.Always, Rs1: 1, Rs2: isa.NoReg},
		{Op: isa.Push, Rd: isa.NoReg, Rs1: 254, Rs2: isa.NoReg},
	} {
		text := []isa.Instr{isa.MakeNop(), bad, isa.MakeNop()}
		for name, exec := range map[string]func(*Core, *Thread) error{
			"Step": func(c *Core, th *Thread) error {
				c.Step(th, text, mem.NewAddrSpace())
				return c.Step(th, text, mem.NewAddrSpace())
			},
			"RunUntil": func(c *Core, th *Thread) error { return c.RunUntil(th, text, mem.NewAddrSpace(), 100) },
		} {
			core, th := New(Config{MLP: 1}, testHier()), &Thread{}
			if err := exec(core, th); err == nil {
				t.Fatalf("%s %v: an illegal instruction must error", name, bad)
			}
			if th.Fault == nil || th.Fault.Addr != 1 || th.Runnable() || core.Instructions != 2 {
				t.Fatalf("%s %v: want a fault at pc 1 and a dead thread after 2 retirements, got %+v, %d", name, bad, th, core.Instructions)
			}
		}
	}
}

func TestWatchIgnoresPCsItCannotSee(t *testing.T) {
	w := NewWatch([]int{-1, 5, 200})
	for _, pc := range []int{-1, 0, 4, 6, 199, 201, 1 << 30} {
		if w.has(pc) {
			t.Fatalf("watch over %v claims pc %d", w.PCs, pc)
		}
	}
	if !w.has(5) || !w.has(200) || len(w.PCs) != 2 {
		t.Fatalf("watch lost a PC: %v", w.PCs)
	}
}

// TestRunUntilMemoFollowsAddressSpace runs one core over one text against two
// address spaces in turn. Their data segments sit at different bases but
// overlap in address, so a segment memo carried from one space into the
// other would load and store the other space's words: in A the loop's store
// walks off the segment's end into the guard gap and faults, in B it stays
// mapped and the thread halts. Every run must leave the registers, PC,
// fault, clock, retired count and all 13 cache.Stats a fresh core leaves.
func TestRunUntilMemoFollowsAddressSpace(t *testing.T) {
	a := isa.NewAsm("main")
	a.MovImm(0, 9216) // mapped in both spaces, by different segments
	a.MovImm(1, 0)    // sum
	a.Label("loop")
	a.Load(2, 0, 0)
	a.Add(1, 1, 2)
	a.Prefetch(0, 64)
	a.Store(0, 600, 1)
	a.AddImm(0, 0, 3)
	a.BrImm(isa.LT, 0, 9216+512, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	space := func(base mem.Addr, mul uint64) *mem.AddrSpace {
		as := mem.NewAddrSpace()
		data := make([]uint64, 2048)
		for i := range data {
			data[i] = uint64(i)*mul + 1
		}
		if _, err := as.MapAt("data", base, data); err != nil {
			t.Fatal(err)
		}
		return as
	}
	spaces := []*mem.AddrSpace{space(8192, 7), space(9216, 13)}
	type outcome struct {
		regs         [isa.NumRegs]uint64
		pc           int
		fault        mem.Fault
		faulted      bool
		now, retired uint64
		stats        cache.Stats
	}
	run := func(c *Core, as *mem.AddrSpace) outcome {
		th := &Thread{}
		for th.Runnable() {
			if err := c.RunUntil(th, bin.Text, as, c.Now+1000); err != nil {
				t.Fatal(err)
			}
		}
		o := outcome{regs: th.Regs, pc: th.PC, faulted: th.Fault != nil, now: c.Now, retired: c.Instructions,
			stats: c.Hierarchy().Stats()}
		if th.Fault != nil {
			o.fault = *th.Fault
		}
		return o
	}
	shared := New(Config{MLP: 2}, testHier())
	for round := 0; round < 6; round++ {
		as := spaces[round%2]
		shared.Hierarchy().Reset()
		shared.Now, shared.Instructions = 0, 0
		shared.ResetWindow()
		got := run(shared, as)
		want := run(New(Config{MLP: 2}, testHier()), as)
		if got != want {
			t.Fatalf("round %d: the shared core left\n%+v\na fresh core\n%+v", round, got, want)
		}
		if got.faulted != (round%2 == 0) {
			t.Fatalf("round %d: faulted %v, want a fault in A only", round, got.faulted)
		}
	}
}

// The decoded table costs each core at most 24 bytes per instruction.
func TestOpIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 24 {
		t.Fatalf("op is %d bytes", n)
	}
}

// The host look-ahead changes no simulated bit. is's six-instruction loop
// runs on a bare core with a symbol table, long enough for its demand load
// to arm, and under the reference loop, to the same random bounds, with an
// OnLLCMiss hook on both that rewrites, through the AddrSpace, the index
// word the look-ahead reads next. After every bound the two must agree on
// registers, PC, clock, retired count and all 13 cache.Stats.
func TestLookAheadMatchesReference(t *testing.T) {
	const keys, buckets = 4000, 1 << 12
	a := isa.NewAsm("kernel")
	a.MovImm(8, 0)
	a.Label("loop")
	a.LoadIdx(9, 0, 8, 0)  // key = keys[i]
	a.LoadIdx(10, 1, 9, 0) // c = cnt[key]: pc 2, the load that arms
	a.AddImm(10, 10, 1)
	a.StoreIdx(1, 9, 0, 10)
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 2, "loop")
	a.Halt()
	bin, err := isa.NewProgram("kernel").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	demand := 2
	type side struct {
		core *Core
		th   *Thread
		as   *mem.AddrSpace
	}
	rng := rand.New(rand.NewSource(41))
	init := make([]uint64, keys)
	for i := range init {
		init[i] = uint64(rng.Intn(buckets))
	}
	launch := func() *side {
		s := &side{core: New(Config{MLP: 2, BranchCost: 1}, testHier()), th: &Thread{}, as: mem.NewAddrSpace()}
		k := s.as.Map("keys", append([]uint64(nil), init...))
		s.th.Regs[0], s.th.Regs[1], s.th.Regs[2] = k.Base, s.as.Alloc("cnt", buckets).Base, keys
		s.core.OnLLCMiss = func(int, mem.Addr) {
			next := s.th.Regs[8] + 1 + lookAheadIters
			if next < keys && !s.as.Write(k.Base+next, (next*7919)%buckets) {
				t.Fatalf("hook could not write keys[%d]", next)
			}
		}
		return s
	}
	got, ref := launch(), launch()
	funcs := append([]isa.Function(nil), bin.Funcs...)
	got.core.Funcs = &funcs
	state := func(s *side) any {
		return struct {
			regs         [isa.NumRegs]uint64
			pc           int
			now, retired uint64
			halted       bool
			stats        cache.Stats
		}{s.th.Regs, s.th.PC, s.core.Now, s.core.Instructions, s.th.Halted, s.core.Hierarchy().Stats()}
	}
	for bound := uint64(0); got.th.Runnable(); {
		bound += 1 + uint64(rng.Intn(5000))
		for got.th.Runnable() && got.core.Now < bound {
			if err := got.core.RunUntil(got.th, bin.Text, got.as, bound); err != nil {
				t.Fatal(err)
			}
		}
		for ref.th.Runnable() && ref.core.Now < bound {
			if err := refRunUntil(ref.core, ref.th, bin.Text, ref.as, bound); err != nil {
				t.Fatal(err)
			}
		}
		if g, r := state(got), state(ref); g != r {
			t.Fatalf("bound %d: with the look-ahead\n%+v\nthe reference\n%+v", bound, g, r)
		}
	}
	if got.core.dec.ops[demand].kind != opLoadAhead {
		t.Fatalf("the demand load never armed: %d misses counted", got.core.dec.misses[demand])
	}
}
