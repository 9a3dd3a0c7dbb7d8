package proc

import (
	"errors"
	"fmt"

	"rpg2/internal/cpu"
	"rpg2/internal/isa"
)

// Tracer is a ptrace-style handle on a process. Operations mirror the subset
// of the ptrace API RPG² uses: stopping and resuming the target, reading and
// writing code memory, reading and writing registers, and single-stepping.
// Every operation charges its stop-the-world cost to the process clock.
type Tracer struct {
	p        *Process
	attached bool
}

// Attach attaches a tracer to the process.
func Attach(p *Process) *Tracer {
	p.penalty(p.opts.Costs.AttachDetach)
	return &Tracer{p: p, attached: true}
}

// Detach releases the process; a stopped target is resumed first.
func (tr *Tracer) Detach() {
	if !tr.attached {
		return
	}
	if tr.p.state == Stopped {
		tr.Resume()
	}
	tr.p.penalty(tr.p.opts.Costs.AttachDetach)
	tr.attached = false
}

// ErrNotStopped is returned by operations that require a stopped target.
var ErrNotStopped = errors.New("proc: target is not stopped")

// Stop pauses every thread of the target (like SIGSTOP under ptrace).
func (tr *Tracer) Stop() {
	if tr.p.state == Stopped {
		return
	}
	tr.p.penalty(tr.p.opts.Costs.StopResume)
	if tr.p.State() == Running {
		tr.p.state = Stopped
	}
}

// Resume lets the target run again and clears any pending stop
// notification. Cores' outstanding-miss windows are reset: a stopped core
// has drained its pipeline.
func (tr *Tracer) Resume() {
	if tr.p.state != Stopped {
		return
	}
	tr.p.penalty(tr.p.opts.Costs.StopResume)
	tr.p.state = Running
	tr.p.sigstop = false
	for _, t := range tr.p.threads {
		t.Core.ResetWindow()
	}
}

// PeekText reads one instruction via the ptrace path.
func (tr *Tracer) PeekText(pc int) (isa.Instr, error) {
	if pc < 0 || pc >= len(tr.p.Text) {
		return isa.Instr{}, fmt.Errorf("proc: PeekText out of range: %d", pc)
	}
	tr.p.penalty(tr.p.opts.Costs.PeekText)
	return tr.p.Text[pc], nil
}

// PokeText writes one instruction via the ptrace path. The target must be
// stopped: RPG² never edits code under a running thread's feet.
func (tr *Tracer) PokeText(pc int, in isa.Instr) error {
	if tr.p.state != Stopped {
		return ErrNotStopped
	}
	if pc < 0 || pc >= len(tr.p.Text) {
		return fmt.Errorf("proc: PokeText out of range: %d", pc)
	}
	tr.p.penalty(tr.p.opts.Costs.Mprotect + tr.p.opts.Costs.PokeText + tr.p.opts.Costs.Mprotect)
	tr.p.WriteText(pc, in)
	return nil
}

// GetRegs returns a copy of a thread's architectural state.
func (tr *Tracer) GetRegs(tid int) (cpu.Thread, error) {
	if tid < 0 || tid >= len(tr.p.threads) {
		return cpu.Thread{}, fmt.Errorf("proc: no thread %d", tid)
	}
	tr.p.penalty(tr.p.opts.Costs.Regs)
	return tr.p.threads[tid].Thread, nil
}

// SetRegs replaces a thread's architectural state. The target must be
// stopped.
func (tr *Tracer) SetRegs(tid int, t cpu.Thread) error {
	if tr.p.state != Stopped {
		return ErrNotStopped
	}
	if tid < 0 || tid >= len(tr.p.threads) {
		return fmt.Errorf("proc: no thread %d", tid)
	}
	tr.p.penalty(tr.p.opts.Costs.Regs)
	tr.p.threads[tid].Thread = t
	return nil
}

// SingleStep executes exactly one instruction of the given thread while the
// rest of the process stays stopped. RPG² single-steps a thread out of a
// prefetch kernel during rollback when its PC has no BAT entry (§3.4.1).
func (tr *Tracer) SingleStep(tid int) error {
	if tr.p.state != Stopped {
		return ErrNotStopped
	}
	if tid < 0 || tid >= len(tr.p.threads) {
		return fmt.Errorf("proc: no thread %d", tid)
	}
	tr.p.penalty(tr.p.opts.Costs.SingleStep)
	tc := tr.p.threads[tid]
	if !tc.Thread.Runnable() {
		return cpu.ErrHalted
	}
	return tc.Core.Step(&tc.Thread, tr.p.Text, tr.p.AS)
}

// WaitSIGSTOP reports and consumes a pending libpg2 completion notification.
func (tr *Tracer) WaitSIGSTOP() bool {
	if tr.p.sigstop {
		tr.p.sigstop = false
		return true
	}
	return false
}

// Process exposes the traced process for observers (profilers attach to its
// cores; experiments read its counters).
func (tr *Tracer) Process() *Process { return tr.p }

// LibPG2 models the LD_PRELOAD agent loaded into the target at launch. It
// performs bulk code writes from inside the address space — much cheaper per
// instruction than ptrace — and raises SIGSTOP when an injection completes
// so the tracer can take over (§3.3).
type LibPG2 struct {
	p *Process
}

// Preload attaches the agent to a process, as LD_PRELOAD would at launch.
func Preload(p *Process) *LibPG2 { return &LibPG2{p: p} }

// InjectCode appends a new function's code to the process text segment and
// registers its symbol. It returns the entry PC of the injected function.
// The target must be stopped; branch targets inside code must already be
// rebased to the returned entry (the caller knows the append position via
// NextPC).
func (l *LibPG2) InjectCode(name string, code []isa.Instr) (int, error) {
	if l.p.state != Stopped {
		return 0, ErrNotStopped
	}
	entry := len(l.p.Text)
	cost := l.p.opts.Costs.Mprotect + uint64(len(code))*l.p.opts.Costs.AgentPokeText + l.p.opts.Costs.Mprotect
	l.p.penalty(cost)
	l.p.Text = append(l.p.Text, code...)
	l.p.textGen++
	l.p.Funcs = append(l.p.Funcs, isa.Function{Name: name, Entry: entry, Size: len(code)})
	l.p.sigstop = true // notify the tracer that injection completed
	return entry, nil
}

// NextPC returns the PC where the next injected function will begin, so
// rewriters can pre-relocate branch targets.
func (l *LibPG2) NextPC() int { return len(l.p.Text) }

// PokeText writes one instruction via the agent's direct-memory path. Used
// for the few-byte prefetch-distance edits of the tuning phase (§3.4).
func (l *LibPG2) PokeText(pc int, in isa.Instr) error {
	if l.p.state != Stopped {
		return ErrNotStopped
	}
	if pc < 0 || pc >= len(l.p.Text) {
		return fmt.Errorf("proc: agent PokeText out of range: %d", pc)
	}
	l.p.penalty(l.p.opts.Costs.Mprotect + l.p.opts.Costs.AgentPokeText + l.p.opts.Costs.Mprotect)
	l.p.WriteText(pc, in)
	return nil
}
