package proc

import (
	"testing"

	"rpg2/internal/cache"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

func testOptions() Options {
	return Options{
		CPU: cpu.Config{MLP: 2},
		Hier: cache.New(cache.Config{
			L1:   cache.LevelConfig{Name: "L1d", Lines: 8, Assoc: 2, Latency: 1},
			L2:   cache.LevelConfig{Name: "L2", Lines: 16, Assoc: 2, Latency: 10},
			L3:   cache.LevelConfig{Name: "L3", Lines: 32, Assoc: 4, Latency: 30},
			DRAM: cache.DRAMConfig{Latency: 100, ServiceCycles: 4, MSHRs: 8},
		}),
		Costs: CostModel{
			AttachDetach: 10, StopResume: 20, PokeText: 5, PeekText: 2,
			Regs: 3, SingleStep: 4, Mprotect: 8, AgentPokeText: 1,
		},
	}
}

// counterBinary counts r0 from 0 to r1 in a loop then halts.
func counterBinary(t *testing.T) *isa.Binary {
	t.Helper()
	a := isa.NewAsm("main")
	a.MovImm(0, 0)
	a.InitDone()
	a.Label("loop")
	a.AddImm(0, 0, 1)
	a.Br(isa.LT, 0, 1, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func launchCounter(t *testing.T, bound uint64) *Process {
	t.Helper()
	p, err := Launch(counterBinary(t), func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[1] = bound
	}, testOptions())
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return p
}

func TestRunToExit(t *testing.T) {
	p := launchCounter(t, 100)
	p.Run(10_000)
	if p.State() != Exited {
		t.Fatalf("state = %v, want exited", p.State())
	}
	if !p.InitDone() {
		t.Fatal("InitDone not latched")
	}
	if p.MainThread().Thread.Regs[0] != 100 {
		t.Fatalf("r0 = %d, want 100", p.MainThread().Thread.Regs[0])
	}
	c := p.Counters()
	if c.Instructions == 0 || c.Cycles == 0 {
		t.Fatalf("counters empty: %+v", c)
	}
}

func TestRunRespectsBudget(t *testing.T) {
	p := launchCounter(t, 1<<40)
	p.Run(5000)
	if p.State() != Running {
		t.Fatalf("state = %v, want running", p.State())
	}
	if c := p.Clock(); c < 5000 || c > 5000+quantum {
		t.Fatalf("clock = %d, want ~5000", c)
	}
}

func TestTracerStopBlocksRun(t *testing.T) {
	p := launchCounter(t, 1<<40)
	tr := Attach(p)
	tr.Stop()
	before := p.Counters().Instructions
	p.Run(1000)
	if p.Counters().Instructions != before {
		t.Fatal("stopped process executed instructions")
	}
	tr.Resume()
	p.Run(1000)
	if p.Counters().Instructions == before {
		t.Fatal("resumed process did not execute")
	}
	tr.Detach()
}

func TestTracerPenaltiesAdvanceClock(t *testing.T) {
	p := launchCounter(t, 1<<40)
	before := p.Clock()
	tr := Attach(p) // AttachDetach = 10
	tr.Stop()       // +20
	tr.Resume()     // +20
	if got := p.Clock() - before; got != 50 {
		t.Fatalf("stolen = %d, want 50", got)
	}
	if p.StolenCycles() != 50 {
		t.Fatalf("StolenCycles = %d", p.StolenCycles())
	}
}

func TestPokeRequiresStopped(t *testing.T) {
	p := launchCounter(t, 1<<40)
	tr := Attach(p)
	if err := tr.PokeText(0, isa.MakeNop()); err != ErrNotStopped {
		t.Fatalf("PokeText while running: %v", err)
	}
	tr.Stop()
	if err := tr.PokeText(0, isa.MakeNop()); err != nil {
		t.Fatalf("PokeText while stopped: %v", err)
	}
	in, err := tr.PeekText(0)
	if err != nil || in.Op != isa.Nop {
		t.Fatalf("PeekText: %v %v", in, err)
	}
	if err := tr.PokeText(-1, isa.MakeNop()); err == nil {
		t.Fatal("out-of-range poke should fail")
	}
}

func TestGetSetRegsAndSingleStep(t *testing.T) {
	p := launchCounter(t, 1<<40)
	p.Run(100)
	tr := Attach(p)
	tr.Stop()
	th, err := tr.GetRegs(0)
	if err != nil {
		t.Fatal(err)
	}
	th.Regs[7] = 777
	if err := tr.SetRegs(0, th); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.GetRegs(0)
	if got.Regs[7] != 777 {
		t.Fatal("SetRegs did not stick")
	}
	before := p.Counters().Instructions
	if err := tr.SingleStep(0); err != nil {
		t.Fatal(err)
	}
	if p.Counters().Instructions != before+1 {
		t.Fatal("SingleStep must retire exactly one instruction")
	}
	if _, err := tr.GetRegs(5); err == nil {
		t.Fatal("bad tid should error")
	}
}

func TestLibPG2InjectAndSignal(t *testing.T) {
	p := launchCounter(t, 1<<40)
	tr := Attach(p)
	agent := Preload(p)
	if _, err := agent.InjectCode("f1", []isa.Instr{isa.MakeNop()}); err != ErrNotStopped {
		t.Fatalf("inject while running: %v", err)
	}
	tr.Stop()
	if tr.WaitSIGSTOP() {
		t.Fatal("spurious SIGSTOP")
	}
	base := agent.NextPC()
	entry, err := agent.InjectCode("f1", []isa.Instr{isa.MakeNop(), {Op: isa.Ret, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg}})
	if err != nil {
		t.Fatal(err)
	}
	if entry != base {
		t.Fatalf("entry %d != NextPC %d", entry, base)
	}
	if !tr.WaitSIGSTOP() {
		t.Fatal("injection must raise SIGSTOP")
	}
	f, ok := p.Func("f1")
	if !ok || f.Entry != entry || f.Size != 2 {
		t.Fatalf("injected symbol: %+v %v", f, ok)
	}
	if err := agent.PokeText(entry, isa.MakeNop()); err != nil {
		t.Fatalf("agent poke: %v", err)
	}
}

func TestSpawnThreadRunsConcurrently(t *testing.T) {
	// Two threads incrementing different registers; both make progress.
	a := isa.NewAsm("main")
	a.InitDone()
	a.Label("loop")
	a.AddImm(0, 0, 1)
	a.Jmp("loop")
	w := isa.NewAsm("worker")
	w.Label("loop")
	w.AddImm(2, 2, 1)
	w.Jmp("loop")
	bin, err := isa.NewProgram("main").Add(a).Add(w).Link()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Launch(bin, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SpawnThread("worker", [isa.NumRegs]uint64{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SpawnThread("ghost", [isa.NumRegs]uint64{}); err == nil {
		t.Fatal("spawn of unknown function should fail")
	}
	p.Run(20_000)
	if p.Threads()[0].Thread.Regs[0] == 0 || p.Threads()[1].Thread.Regs[2] == 0 {
		t.Fatal("both threads should progress")
	}
	// Threads have distinct stacks.
	if p.Threads()[0].Stack == p.Threads()[1].Stack {
		t.Fatal("threads share a stack")
	}
}

func TestCrashDetection(t *testing.T) {
	a := isa.NewAsm("main")
	a.MovImm(0, 0)
	a.Load(1, 0, 0) // null dereference
	a.Halt()
	bin, _ := isa.NewProgram("main").Add(a).Link()
	p, err := Launch(bin, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	if p.State() != Crashed {
		t.Fatalf("state = %v, want crashed", p.State())
	}
	if p.FaultedThread() == nil {
		t.Fatal("FaultedThread should find the victim")
	}
}

func TestLaunchRejectsBadBinary(t *testing.T) {
	bad := &isa.Binary{Text: []isa.Instr{{Op: isa.Jmp, Target: 99}},
		Funcs: []isa.Function{{Name: "main", Entry: 0, Size: 1}}, EntryName: "main"}
	if _, err := Launch(bad, nil, testOptions()); err == nil {
		t.Fatal("invalid binary must be rejected")
	}
	opts := testOptions()
	opts.Hier = nil
	if _, err := Launch(counterBinary(t), nil, opts); err == nil {
		t.Fatal("missing hierarchy must be rejected")
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Running, Stopped, Exited, Crashed} {
		if s.String() == "" {
			t.Errorf("state %d has no name", s)
		}
	}
}

// A tracer that pokes a bad instruction has crashed its target: the process
// must read Crashed, so the controller's "target crashed" path fires, and
// not Exited as if it had run to Halt. An unknown opcode and a register
// outside the file are both bad instructions.
func TestIllegalInstructionCrashesTheProcess(t *testing.T) {
	for _, bad := range []isa.Instr{{Op: isa.Op(250)}, {Op: isa.Add, Rd: 20, Rs1: 1, Rs2: 2}} {
		p := launchCounter(t, 1<<40)
		p.Run(100)
		tr := Attach(p)
		tr.Stop()
		loop := p.MainThread().Thread.PC
		if err := tr.PokeText(loop, bad); err != nil {
			t.Fatal(err)
		}
		tr.Resume()
		p.Run(1000)
		if p.State() != Crashed {
			t.Fatalf("state = %v after %v, want crashed", p.State(), bad)
		}
		if f := p.FaultedThread(); f == nil || f.Thread.Fault.Addr != uint64(loop) {
			t.Fatalf("%v: want a fault recorded at pc %d, got %+v", bad, loop, f)
		}
	}
}

// Run's inner loop lives in cpu.RunUntil, which hoists the text bounds. A
// tracer working from inside a miss hook stops the target and injects code
// past the old end of the text; the thread must run on into it.
func TestHookMayStopAndGrowText(t *testing.T) {
	a := isa.NewAsm("main")
	a.InitDone()
	a.Label("loop")
	a.Load(2, 0, 0)
	a.AddImm(0, 0, 8)
	a.Jmp("loop")
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	// Free tracer operations: the thread is still below its quantum's
	// bound when the hook returns, and runs on inside the same slice.
	opts := testOptions()
	opts.Costs = CostModel{}
	p, err := Launch(bin, func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Alloc("data", 1<<16).Base
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, agent := Attach(p), Preload(p)
	core := p.MainThread().Core
	stoppedAt := uint64(0)
	core.OnLLCMiss = func(pc int, addr mem.Addr) {
		core.OnLLCMiss = nil
		tr.Stop()
		entry := agent.NextPC()
		// Far more than the text's spare capacity, so it reallocates.
		code := make([]isa.Instr, 4096)
		for i := range code {
			code[i] = isa.MakeNop()
		}
		code[len(code)-2] = isa.Instr{Op: isa.MovImm, Rd: 5, Rs1: isa.NoReg, Rs2: isa.NoReg, Imm: 77}
		code[len(code)-1] = isa.Instr{Op: isa.Halt, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg}
		if _, err := agent.InjectCode("f1", code); err != nil {
			t.Fatal(err)
		}
		if err := tr.PokeText(2, isa.Instr{Op: isa.Jmp, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg, Target: entry}); err != nil {
			t.Fatal(err)
		}
		stoppedAt = core.Instructions
	}
	p.Run(50_000)
	if p.State() != Stopped || stoppedAt == 0 {
		t.Fatal("the hook should have stopped the process")
	}
	// The very next instruction is the poked jump, and the rest of the
	// slice runs in code the text did not have when the slice began.
	if f1, _ := p.Func("f1"); !f1.Contains(p.MainThread().Thread.PC) {
		t.Fatalf("pc = %d after the hook's slice, want inside the injected %+v", p.MainThread().Thread.PC, f1)
	}
	tr.Resume()
	p.Run(50_000)
	if p.State() != Exited || p.MainThread().Thread.Regs[5] != 77 {
		t.Fatalf("state %v, r5 = %d: the thread did not run the injected code to its Halt (fault: %v)",
			p.State(), p.MainThread().Thread.Regs[5], p.MainThread().Thread.Fault)
	}
}
