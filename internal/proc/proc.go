// Package proc models Linux processes and the tracing facilities RPG² uses
// to manipulate them: a ptrace-like debugger API (pause/resume, code and
// register access, single-stepping) and an LD_PRELOAD-style in-process agent
// (libpg2) that performs bulk code edits cheaply from inside the target's
// address space.
//
// A Process owns a mutable text segment (so new function versions can be
// appended and call sites patched at runtime), a data address space, and one
// or more threads each bound to an execution core. All tracer operations
// charge stop-the-world time to the process clock according to a CostModel,
// which is how the reproduction regenerates the operation-latency numbers of
// the paper's Table 2.
package proc

import (
	"errors"
	"fmt"

	"rpg2/internal/cache"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// State describes a process's lifecycle state.
type State uint8

// Process states.
const (
	// Running means threads may execute when the scheduler runs them.
	Running State = iota
	// Stopped means a tracer has paused every thread.
	Stopped
	// Exited means every thread has halted normally.
	Exited
	// Crashed means a thread took a fatal memory fault.
	Crashed
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	case Exited:
		return "exited"
	case Crashed:
		return "crashed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// CostModel gives the stop-the-world cost, in cycles, of tracer operations.
// The split between ptrace-path and libpg2-path costs mirrors §3.3 of the
// paper: libpg2 edits target memory directly and is much cheaper per word
// than ptrace's syscall-per-word PokeText.
type CostModel struct {
	// AttachDetach is charged by Attach and Detach.
	AttachDetach uint64
	// StopResume is charged by each Stop and each Resume.
	StopResume uint64
	// PokeText is charged per instruction written via ptrace.
	PokeText uint64
	// PeekText is charged per instruction read via ptrace.
	PeekText uint64
	// Regs is charged by GetRegs/SetRegs.
	Regs uint64
	// SingleStep is charged per single-stepped instruction.
	SingleStep uint64
	// Mprotect is charged when code pages are made writable or sealed
	// again around an edit (one call covers one edit batch).
	Mprotect uint64
	// AgentPokeText is charged per instruction written via libpg2.
	AgentPokeText uint64
}

// ThreadCtx binds an architectural thread to its execution core.
type ThreadCtx struct {
	// ID is the thread id, unique within the process.
	ID int
	// Thread is the architectural state.
	Thread cpu.Thread
	// Core is the hardware context executing the thread.
	Core *cpu.Core
	// Stack is the thread's stack segment.
	Stack *mem.Segment
}

// Options configures process launch.
type Options struct {
	// CPU is the per-core microarchitectural configuration.
	CPU cpu.Config
	// Hier is the shared cache hierarchy (one per socket).
	Hier *cache.Hierarchy
	// StackWords sizes each thread stack; 0 selects a default.
	StackWords int
	// Costs is the tracer cost model, in cycles.
	Costs CostModel
}

// Process is a running instance of a Binary.
type Process struct {
	// Text is the process's code memory. It starts as a copy of the
	// binary's text and grows when a tracer injects new functions. It is
	// read-only outside this package: WriteText, Tracer.PokeText,
	// LibPG2.PokeText and LibPG2.InjectCode are its writers, and each bumps
	// the generation the cores' decoded tables are checked against.
	Text []isa.Instr
	// Funcs is the symbol table, including injected functions.
	Funcs []isa.Function
	// AS is the data address space.
	AS *mem.AddrSpace

	opts    Options
	threads []*ThreadCtx
	state   State

	// initDone latches once any thread retires the InitDone marker.
	initDone bool
	// sigstop latches when libpg2 raises SIGSTOP to notify the tracer.
	sigstop bool

	// stolenCycles accumulates stop-the-world penalties, for reporting.
	stolenCycles uint64
	// textGen counts writes to Text; every core's TextGen points here.
	textGen uint64
}

// DefaultStackWords is the per-thread stack size when Options leaves it 0.
const DefaultStackWords = 1024

// Launch creates a process from a binary. setup, if non-nil, populates the
// data address space and the main thread's initial registers. The main
// thread starts at the binary's entry function.
func Launch(bin *isa.Binary, setup func(*mem.AddrSpace, *[isa.NumRegs]uint64), opts Options) (*Process, error) {
	if err := bin.Validate(); err != nil {
		return nil, fmt.Errorf("proc: invalid binary: %w", err)
	}
	entry, err := bin.Entry()
	if err != nil {
		return nil, err
	}
	if opts.Hier == nil {
		return nil, errors.New("proc: Options.Hier is required")
	}
	if opts.StackWords <= 0 {
		opts.StackWords = DefaultStackWords
	}
	p := &Process{
		Text:  append([]isa.Instr(nil), bin.Text...),
		Funcs: append([]isa.Function(nil), bin.Funcs...),
		AS:    mem.NewAddrSpace(),
		opts:  opts,
		state: Running,
	}
	var regs [isa.NumRegs]uint64
	if setup != nil {
		setup(p.AS, &regs)
	}
	p.spawn(entry, regs)
	return p, nil
}

// spawn creates a new thread starting at the given PC with the given
// registers (the stack pointer is initialised to the thread's own stack).
func (p *Process) spawn(pc int, regs [isa.NumRegs]uint64) *ThreadCtx {
	id := len(p.threads)
	stack := p.AS.Alloc(fmt.Sprintf("stack%d", id), p.opts.StackWords)
	regs[isa.SP] = stack.End()
	core := cpu.New(p.opts.CPU, p.opts.Hier)
	core.OnInitDone = func() { p.initDone = true }
	core.TextGen = &p.textGen
	core.Funcs = &p.Funcs
	tc := &ThreadCtx{
		ID:     id,
		Thread: cpu.Thread{Regs: regs, PC: pc},
		Core:   core,
		Stack:  stack,
	}
	p.threads = append(p.threads, tc)
	return tc
}

// SpawnThread starts an additional thread at the entry of the named function
// with the given initial registers. Used by multithreaded workloads and by
// OSR tests.
func (p *Process) SpawnThread(fn string, regs [isa.NumRegs]uint64) (*ThreadCtx, error) {
	f, ok := p.Func(fn)
	if !ok {
		return nil, fmt.Errorf("proc: no function %q", fn)
	}
	return p.spawn(f.Entry, regs), nil
}

// Func looks up a function in the process symbol table.
func (p *Process) Func(name string) (isa.Function, bool) {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return isa.Function{}, false
}

// FuncAt returns the function containing the PC, searching injected
// functions as well.
func (p *Process) FuncAt(pc int) (isa.Function, bool) {
	for _, f := range p.Funcs {
		if f.Contains(pc) {
			return f, true
		}
	}
	return isa.Function{}, false
}

// State returns the process lifecycle state, recomputing exit/crash from the
// thread states.
func (p *Process) State() State {
	if p.state == Stopped {
		return Stopped
	}
	anyRunnable := false
	for _, t := range p.threads {
		if t.Thread.Fault != nil {
			p.state = Crashed
			return Crashed
		}
		if t.Thread.Runnable() {
			anyRunnable = true
		}
	}
	if !anyRunnable {
		p.state = Exited
		return Exited
	}
	return p.state
}

// WriteText replaces the instruction at pc, free of charge: the static edit
// of a caller that owns the process outright, such as a baseline moving its
// prefetch distance between measurement windows. Every thread executes the
// new instruction from its next retirement of pc.
func (p *Process) WriteText(pc int, in isa.Instr) {
	p.Text[pc] = in
	p.textGen++
}

// Threads returns the process's threads.
func (p *Process) Threads() []*ThreadCtx { return p.threads }

// MainThread returns thread 0.
func (p *Process) MainThread() *ThreadCtx { return p.threads[0] }

// InitDone reports whether the program has signalled the end of its
// initialisation phase.
func (p *Process) InitDone() bool { return p.initDone }

// Clock returns the process clock: the main core's cycle count. All cores
// advance against the same timebase (quantum scheduling keeps them aligned).
func (p *Process) Clock() uint64 { return p.threads[0].Core.Now }

// StolenCycles returns the total stop-the-world time charged by tracers.
func (p *Process) StolenCycles() uint64 { return p.stolenCycles }

// penalty advances every core's clock without retiring instructions,
// modelling time the process spends stopped while a tracer works on it.
func (p *Process) penalty(cycles uint64) {
	p.stolenCycles += cycles
	for _, t := range p.threads {
		t.Core.Now += cycles
	}
}

// quantum is the round-robin scheduling slice in cycles. It must stay small
// relative to miss latencies: cores simulate their quanta one after another
// against shared memory-controller state, so a coarse quantum would make
// later cores' fills queue behind entire quanta of earlier cores' traffic
// instead of interleaving with it.
const quantum = 512

// Run advances the process by the given number of cycles of its clock.
// Threads are interleaved in fixed quanta; execution stops early if the
// process exits, crashes, or is stopped by a tracer from a callback.
func (p *Process) Run(cycles uint64) {
	if p.state == Stopped {
		return
	}
	target := p.Clock() + cycles
	for p.State() == Running && p.Clock() < target {
		bound := min(p.Clock()+quantum, target)
		progressed := false
		for _, t := range p.threads {
			retired := t.Core.Instructions
			// RunUntil comes back early after a hook; p.Text is re-read
			// because a tracer may have grown it from inside one.
			for t.Thread.Runnable() && t.Core.Now < bound {
				if err := t.Core.RunUntil(&t.Thread, p.Text, p.AS, bound); err != nil {
					t.Thread.Halted = true
					break
				}
			}
			progressed = progressed || t.Core.Instructions != retired
			// Keep halted threads' clocks moving so the process
			// clock stays meaningful.
			if !t.Thread.Runnable() && t.Core.Now < bound {
				t.Core.Now = bound
			}
		}
		if !progressed && p.State() == Running {
			// All threads blocked without progress; advance time.
			for _, t := range p.threads {
				if t.Core.Now < bound {
					t.Core.Now = bound
				}
			}
		}
	}
}

// Counters is a snapshot of process-wide retired instructions and the
// process clock, for IPC windows.
type Counters struct {
	Cycles       uint64
	Instructions uint64
}

// Counters returns the current snapshot summed over all cores.
func (p *Process) Counters() Counters {
	var c Counters
	c.Cycles = p.Clock()
	for _, t := range p.threads {
		c.Instructions += t.Core.Instructions
	}
	return c
}

// FaultedThread returns the first faulted thread, or nil.
func (p *Process) FaultedThread() *ThreadCtx {
	for _, t := range p.threads {
		if t.Thread.Fault != nil {
			return t
		}
	}
	return nil
}
