package proc_test

import (
	"testing"

	"rpg2/internal/baselines"
	"rpg2/internal/bolt"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/mem"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// editIters is how many iterations the edit kernels run; editSlice is the
// first Run, which stops them about a third of the way through.
const (
	editIters = 20_000
	editSlice = 20_000
)

// The edit kernel's PCs: r3 += 1 at addPC (the immediate the edits
// rewrite), r0 += 1 at countPC, then the latch back to addPC.
const (
	addPC   = 1
	countPC = 2
)

// launchEditKernel launches a loop of editIters iterations whose r3 sums the
// AddImm immediate at addPC and whose r0 counts the iterations, attaches a
// watch over watchPCs if there are any, and runs the first slice.
func launchEditKernel(t *testing.T, watchPCs ...int) *proc.Process {
	t.Helper()
	a := isa.NewAsm("main")
	a.MovImm(0, 0)
	a.Label("loop")
	a.AddImm(3, 3, 1) // addPC
	a.AddImm(0, 0, 1) // countPC
	a.Br(isa.LT, 0, 1, "loop")
	a.Halt()
	return launchFirstSlice(t, watchPCs, a)
}

func launchFirstSlice(t *testing.T, watchPCs []int, asms ...*isa.Asm) *proc.Process {
	t.Helper()
	prog := isa.NewProgram("main")
	for _, a := range asms {
		prog.Add(a)
	}
	bin, err := prog.Link()
	if err != nil {
		t.Fatal(err)
	}
	p, err := machine.CascadeLake().Launch(bin, func(_ *mem.AddrSpace, regs *[isa.NumRegs]uint64) { regs[1] = editIters })
	if err != nil {
		t.Fatal(err)
	}
	if len(watchPCs) > 0 {
		perf.AttachWatch(p, watchPCs)
	}
	p.Run(editSlice)
	return p
}

// runToExit finishes the kernel and returns its main thread.
func runToExit(t *testing.T, p *proc.Process) *cpu.Thread {
	t.Helper()
	p.Run(100 * editIters)
	if st := p.State(); st != proc.Exited {
		t.Fatalf("kernel is %v at the end, want exited (fault %+v)", st, p.MainThread().Thread.Fault)
	}
	return &p.MainThread().Thread
}

// TestTextEditsSeenNextExecution edits a live kernel between two Runs, by
// every path that writes code or changes what a core counts, and checks
// that the edit is in force from the very next retirement of the PC it
// touches and not before.
func TestTextEditsSeenNextExecution(t *testing.T) {
	const newImm = 1000
	edits := map[string]func(t *testing.T, p *proc.Process, in isa.Instr){
		"Tracer.PokeText": func(t *testing.T, p *proc.Process, in isa.Instr) {
			tr := proc.Attach(p)
			tr.Stop()
			if err := tr.PokeText(addPC, in); err != nil {
				t.Fatal(err)
			}
			tr.Detach()
		},
		"LibPG2.PokeText": func(t *testing.T, p *proc.Process, in isa.Instr) {
			tr := proc.Attach(p)
			tr.Stop()
			if err := proc.Preload(p).PokeText(addPC, in); err != nil {
				t.Fatal(err)
			}
			tr.Detach()
		},
		"Prefetched.SetDistance": func(t *testing.T, p *proc.Process, in isa.Instr) {
			pf := &baselines.Prefetched{RW: &bolt.Rewrite{PatchPoints: []bolt.PatchPoint{{Offset: addPC, Scale: 1}}}}
			pf.SetDistance(p, int(in.Imm))
		},
		"Prefetched.SetSiteDistance": func(t *testing.T, p *proc.Process, in isa.Instr) {
			pf := &baselines.Prefetched{RW: &bolt.Rewrite{PatchPoints: []bolt.PatchPoint{{}, {Offset: addPC, Scale: 1}}}}
			pf.SetSiteDistance(p, 1, int(in.Imm))
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			p := launchEditKernel(t)
			// r3 counts the executions of addPC so far, at immediate 1.
			before := p.MainThread().Thread.Regs[3]
			if before == 0 || before >= editIters {
				t.Fatalf("the first slice ran addPC %d times; want it stopped mid-loop", before)
			}
			in := p.Text[addPC]
			in.Imm = newImm
			edit(t, p, in)
			th := runToExit(t, p)
			if want := before + (editIters-before)*newImm; th.Regs[3] != want {
				t.Fatalf("r3 = %d, want %d: %d executions at 1, then every one at %d", th.Regs[3], want, before, newImm)
			}
		})
	}

	// A call site patched to a function injected afterwards runs that
	// function from the next call on. A single step between the two edits
	// enters the interpreter with the call site already patched, so only
	// the injection can make the new function's code visible.
	t.Run("InjectCode", func(t *testing.T) {
		a := isa.NewAsm("main")
		a.MovImm(0, 0)
		a.Label("loop")
		a.Call("f") // callPC
		a.AddImm(0, 0, 1)
		a.Br(isa.LT, 0, 1, "loop")
		a.Halt()
		f := isa.NewAsm("f")
		f.AddImm(3, 3, 1)
		f.Ret()
		p := launchFirstSlice(t, nil, a, f)
		const callPC = 1
		fn, _ := p.Func("f")
		tr, agent := proc.Attach(p), proc.Preload(p)
		tr.Stop()
		th := &p.MainThread().Thread
		for th.PC == callPC {
			if err := tr.SingleStep(0); err != nil {
				t.Fatal(err)
			}
		}
		// Calls retired so far: r0, plus one between the call and the
		// increment of r0 after it returns.
		calls := th.Regs[0]
		if th.PC == fn.Entry || th.PC == fn.Entry+1 || th.PC == callPC+1 {
			calls++
		}
		entry := agent.NextPC()
		call := p.Text[callPC]
		call.Target = entry
		if err := tr.PokeText(callPC, call); err != nil {
			t.Fatal(err)
		}
		if err := tr.SingleStep(0); err != nil {
			t.Fatal(err)
		}
		if _, err := agent.InjectCode("g", []isa.Instr{
			{Op: isa.AddImm, Rd: 4, Rs1: 4, Rs2: isa.NoReg, Imm: 1},
			{Op: isa.Ret, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg},
		}); err != nil {
			t.Fatal(err)
		}
		tr.Detach()
		th = runToExit(t, p)
		if th.Regs[3] != calls || th.Regs[4] != editIters-calls {
			t.Fatalf("f ran %d times and g %d; want %d and %d", th.Regs[3], th.Regs[4], calls, editIters-calls)
		}
	})

	// Watches attached, detached or extended between two Runs count from
	// the next retirement.
	t.Run("AttachWatch", func(t *testing.T) {
		p := launchEditKernel(t)
		before := p.MainThread().Thread.Regs[3]
		w := perf.AttachWatch(p, []int{addPC})
		runToExit(t, p)
		if w.Count != editIters-before {
			t.Fatalf("watch attached after %d executions counted %d, want %d", before, w.Count, editIters-before)
		}
	})
	t.Run("DetachWatch", func(t *testing.T) {
		p := launchEditKernel(t, addPC)
		w := perf.Watches(p)[0]
		at := p.MainThread().Thread.Regs[3]
		perf.DetachWatch(p, w)
		// One in, one out: the same number of watches, a different set.
		w2 := perf.AttachWatch(p, []int{countPC})
		counted := p.MainThread().Thread.Regs[0]
		runToExit(t, p)
		if w.Count != at {
			t.Fatalf("watch detached after %d executions counted %d", at, w.Count)
		}
		if w2.Count != editIters-counted {
			t.Fatalf("watch attached after %d executions counted %d, want %d", counted, w2.Count, editIters-counted)
		}
	})
	t.Run("Watch.Extend", func(t *testing.T) {
		p := launchEditKernel(t, countPC)
		w := perf.Watches(p)[0]
		before := p.MainThread().Thread.Regs[3]
		w.Extend([]int{addPC})
		runToExit(t, p)
		if want := editIters + editIters - before; w.Count != want {
			t.Fatalf("watch extended after %d executions counted %d, want %d", before, w.Count, want)
		}
	})

	// Two threads of is share one text; each core has its own watch, over a
	// PC the other core does not watch. Thread i's loop index r8 is its own
	// witness: it counts retirements of the index increment, and of the work
	// load but for the one iteration between the two.
	t.Run("is/2-threads", func(t *testing.T) {
		m := machine.CascadeLake()
		w, err := workloads.Build("is", "", 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Launch(w.Bin, w.Setup)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.SpawnWorkers(p, 2); err != nil {
			t.Fatal(err)
		}
		incPC := w.WorkPC + 3
		if in := p.Text[incPC]; in.Op != isa.AddImm || in.Rd != 8 {
			t.Fatalf("pc %d is %v, want is's index increment", incPC, in)
		}
		if err := baselines.RunUntilInit(p, m); err != nil {
			t.Fatal(err)
		}
		p.Run(100_000)
		loads := func(th *cpu.Thread) uint64 {
			n := th.Regs[8]
			if th.PC > w.WorkPC && th.PC <= incPC {
				n++
			}
			return n
		}
		t0, t1 := &p.Threads()[0].Thread, &p.Threads()[1].Thread
		load0, inc1 := loads(t0), t1.Regs[8]
		wLoad, wInc := cpu.NewWatch([]int{w.WorkPC}), cpu.NewWatch([]int{incPC})
		p.Threads()[0].Core.Watches = append(p.Threads()[0].Core.Watches, wLoad)
		p.Threads()[1].Core.Watches = append(p.Threads()[1].Core.Watches, wInc)
		p.Run(300_000)
		if load0 == 0 || inc1 == 0 || t0.Regs[8] <= load0 || t1.Regs[8] <= inc1 {
			t.Fatalf("index registers %d -> %d and %d -> %d: both threads must stay in one superstep", load0, t0.Regs[8], inc1, t1.Regs[8])
		}
		if got, want := wLoad.Count, loads(t0)-load0; got != want {
			t.Errorf("core 0's watch on the work load counted %d, thread 0 retired it %d times", got, want)
		}
		if got, want := wInc.Count, t1.Regs[8]-inc1; got != want {
			t.Errorf("core 1's watch on the index increment counted %d, thread 1 retired it %d times", got, want)
		}
	})
}
