// Package cpu implements the execution core of the simulated machine: an
// interpreter for the isa instruction set with a cycle-accounting model.
//
// The timing model charges one base cycle per instruction plus memory
// latency from the cache hierarchy. Out-of-order overlap of independent
// last-level-cache misses is modelled with an MLP window: up to MLP demand
// misses may be outstanding before the core stalls waiting for the oldest.
// This reproduces the key property that makes software prefetching worth
// ~2x rather than ~20x on real machines: the baseline already overlaps
// misses, so prefetching buys the gap between MLP-limited and
// bandwidth-limited throughput.
package cpu

import (
	"fmt"

	"rpg2/internal/cache"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// Thread is an architectural thread context: a register file and a PC.
type Thread struct {
	// Regs is the general-purpose register file; Regs[isa.SP] is the
	// stack pointer.
	Regs [isa.NumRegs]uint64
	// PC is the global index of the next instruction in the text segment.
	PC int
	// Halted is set when the thread executes Halt.
	Halted bool
	// Fault records a memory fault that killed the thread, if any.
	Fault *mem.Fault
}

// Runnable reports whether the thread can execute further instructions.
func (t *Thread) Runnable() bool { return !t.Halted && t.Fault == nil }

// Watch counts retirements of a set of instruction addresses. Experiments
// watch a loop's demand load (in both the original and any rewritten
// function) to obtain an exact work-per-cycle rate that is comparable
// across binaries, unlike IPC, which the prefetch kernel's extra
// instructions inflate.
type Watch struct {
	// PCs are the watched instruction addresses, set by NewWatch and Extend.
	PCs []int
	// Count is the total retirements of any watched PC.
	Count uint64

	bits []uint64 // bit pc is set for every pc in PCs
	gen  uint64   // counts additions to bits, for the cores' watched bits
}

// NewWatch builds a watch over the given PCs.
func NewWatch(pcs []int) *Watch {
	w := &Watch{}
	w.Extend(pcs)
	return w
}

// Extend unions additional PCs into the watch without touching its count.
func (w *Watch) Extend(pcs []int) {
	for _, pc := range pcs {
		if pc < 0 || w.has(pc) {
			continue
		}
		if need := pc>>6 + 1; need > len(w.bits) {
			w.bits = append(w.bits, make([]uint64, need-len(w.bits))...)
		}
		w.bits[pc>>6] |= 1 << (pc & 63)
		w.PCs = append(w.PCs, pc)
		w.gen++
	}
}

func (w *Watch) has(pc int) bool {
	i := uint(pc) >> 6
	return i < uint(len(w.bits)) && w.bits[i]&(1<<(uint(pc)&63)) != 0
}

// Config holds the core's microarchitectural parameters.
type Config struct {
	// MLP is the number of demand LLC misses that may overlap before the
	// core stalls (an abstraction of the out-of-order window and miss
	// queue).
	MLP int
	// BranchCost is the extra cycles charged for a taken branch.
	BranchCost uint64
}

// Core executes one thread at a time against a shared cache hierarchy, and
// owns that hardware context's cycle clock and retired-instruction counter.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy

	// Now is the core's cycle clock.
	Now uint64
	// Instructions counts retired instructions.
	Instructions uint64

	// OnLLCMiss, if set, is invoked for every retired demand load that
	// missed the LLC, or, with MissGap set, for the sampled ones; package
	// perf hooks PEBS sampling here.
	OnLLCMiss func(pc int, addr mem.Addr)
	// MissGap, if set beside OnLLCMiss, is a PEBS-style event counter the
	// core counts down itself: every LLC miss decrements it, and only the
	// miss that leaves it at 0 calls OnLLCMiss, which reloads it. Misses
	// in the gap neither call the hook nor return from RunUntil. Package
	// perf points it at its sampler's count.
	MissGap *uint64
	// Watches are the retirement counters attached to this core. Each
	// watch counts retirements of its PCs independently, so several
	// observers (an experiment harness and the RPG² controller, say) can
	// count different instruction sets on the same core without
	// interfering. A single Watch may be attached to several cores; its
	// count then aggregates across them.
	Watches []*Watch
	// OnInitDone, if set, is invoked when the thread retires an InitDone
	// marker (the benchmark's end-of-initialisation signal).
	OnInitDone func()
	// TextGen, if set, counts the in-place writes to the text the core
	// runs, and RunUntil re-decodes that text when it has moved; package
	// proc points it at its process's count. Without it, only a text at a
	// new address or of a new length is re-decoded, so a caller that edits
	// its text in place between calls must set it.
	TextGen *uint64
	// Funcs, if set, is the symbol table of the text the core runs; the
	// host look-ahead slices a hot load within the function holding it.
	// Package proc points it at its process's table. Without it, no load
	// gets a look-ahead.
	Funcs *[]isa.Function

	outstanding []uint64 // completion cycles of in-flight demand misses, a ring once full
	head        int      // the ring's oldest slot in a full window; 0 while it fills
	dec         decoded  // the text as ops, and what they were built from
	armMisses   uint32   // the LLC's line count: the look-ahead gate's floor
}

// New builds a core bound to a hierarchy.
func New(cfg Config, hier *cache.Hierarchy) *Core {
	if cfg.MLP < 1 {
		cfg.MLP = 1
	}
	return &Core{cfg: cfg, hier: hier, armMisses: uint32(max(hier.Config().L3.Lines, 1))}
}

// Hierarchy returns the cache hierarchy the core is attached to.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// ResetWindow clears the outstanding-miss window, e.g. after the thread has
// been stopped and resumed by the tracer.
func (c *Core) ResetWindow() { c.outstanding, c.head = c.outstanding[:0], 0 }

// chargeMiss applies the MLP model to a demand miss that is issued at now and
// completes at the given absolute cycle, and returns the stall charged now.
// The window fills in issue order; once full it is a ring, and the new miss
// takes the oldest's slot, so no miss shifts the window.
func (c *Core) chargeMiss(now, completion uint64) uint64 {
	if len(c.outstanding) < c.cfg.MLP {
		c.outstanding = append(c.outstanding, completion)
		return 0
	}
	// Window full: wait for the oldest outstanding miss to retire.
	i := c.head
	oldest := c.outstanding[i]
	c.outstanding[i] = completion
	if i++; i == len(c.outstanding) {
		i = 0
	}
	c.head = i
	if oldest > now {
		return oldest - now
	}
	return 0
}

// sampled counts an LLC miss down the miss gap and reports whether the
// OnLLCMiss hook is owed for it: always without a gap.
func (c *Core) sampled() bool {
	g := c.MissGap
	if g == nil {
		return true
	}
	*g--
	return *g == 0
}

// ErrHalted is returned (wrapped) when stepping a non-runnable thread.
var ErrHalted = fmt.Errorf("cpu: thread is not runnable")

// Step executes one instruction of the thread against the given text segment
// and address space, advancing the core clock. A memory fault on a demand
// access records the fault on the thread and stops it, like a fatal SIGSEGV;
// so do a PC outside the text and an unknown opcode, which also return errors.
func (c *Core) Step(t *Thread, text []isa.Instr, as *mem.AddrSpace) error {
	if !t.Runnable() {
		return ErrHalted
	}
	return c.RunUntil(t, text, as, c.Now+1)
}

// RunUntil is the interpreter loop: it executes the thread until the core
// clock reaches bound, the thread halts or faults, or a hook (OnLLCMiss,
// OnInitDone) has fired. Runnability, the op table for text and the watch
// list are read once, and a hook may stop the process, edit or grow its
// text or change the watches: RunUntil returns after the instruction that
// fired one and the caller, re-reading what it passes, calls again. A thread
// that is not runnable or already at bound returns nil.
//
// The clock, the retired count and the PC live in locals while the loop
// runs. They are written back to c.Now, c.Instructions and t.PC before every
// hook call, so a hook sees the state Step would show at that instruction,
// and on every exit; nothing after a hook writes them, so what a hook sets
// stands.
func (c *Core) RunUntil(t *Thread, text []isa.Instr, as *mem.AddrSpace, bound uint64) error {
	if !t.Runnable() {
		return nil
	}
	var err error
	r := &t.Regs
	ops := c.opsFor(text)
	memos := c.memosFor(as, len(ops))[:len(ops)] // the reslice lets memos[pc] go unchecked
	misses := c.dec.misses[:len(ops)]
	watches := c.Watches
	hier := c.hier
	branchCost := c.cfg.BranchCost
	now, retired, next := c.Now, c.Instructions, t.PC
loop:
	for now < bound {
		pc := next
		if uint(pc) >= uint(len(ops)) {
			t.Fault = &mem.Fault{Addr: uint64(pc)}
			err = fmt.Errorf("cpu: pc %d outside text segment", pc)
			break loop
		}
		o := &ops[pc]
		next++
		now++
		retired++
		if o.watched {
			for _, w := range watches {
				if w.has(pc) {
					w.Count++
				}
			}
		}

		var idx uint64 // the index register, for the base+index forms
		switch o.kind {
		case opNop:
		case opInitDone:
			if c.OnInitDone != nil {
				c.Now, c.Instructions, t.PC = now, retired, next
				c.OnInitDone()
				return nil
			}
		case opMovImm:
			r[o.rd&15] = o.imm
		case opMov:
			r[o.rd&15] = r[o.rs1&15]
		case opAdd:
			r[o.rd&15] = r[o.rs1&15] + r[o.rs2&15]
		case opAddImm:
			r[o.rd&15] = r[o.rs1&15] + o.imm
		case opSub:
			r[o.rd&15] = r[o.rs1&15] - r[o.rs2&15]
		case opSubImm:
			r[o.rd&15] = r[o.rs1&15] - o.imm
		case opMul:
			r[o.rd&15] = r[o.rs1&15] * r[o.rs2&15]
		case opMulImm:
			r[o.rd&15] = r[o.rs1&15] * o.imm
		case opShlImm:
			r[o.rd&15] = r[o.rs1&15] << o.imm
		case opShrImm:
			r[o.rd&15] = r[o.rs1&15] >> o.imm
		case opAndImm:
			r[o.rd&15] = r[o.rs1&15] & o.imm
		case opMin:
			r[o.rd&15] = min(r[o.rs1&15], r[o.rs2&15])
		case opLoadIdx:
			idx = r[o.rs2&15]
			fallthrough
		case opLoad:
			addr := r[o.rs1&15] + o.imm + idx
			m := &memos[pc]
			w := m.word(addr)
			if w == nil {
				if w = m.refresh(as, addr); w == nil {
					t.Fault = &mem.Fault{Addr: addr}
					break loop
				}
			}
			// The word's host line is fetched while the cache model runs,
			// and read after it: Access touches no simulated memory, and
			// the value is still read before the hook, which may write it.
			mem.HostPrefetch(w)
			res := hier.Access(uint64(pc), addr, now)
			v := *w
			// Cache hits pay their level latency directly; LLC misses
			// enter the MLP window and fire the hook, which still runs
			// before the load's write-back.
			if !res.LLCMiss {
				now += res.Cycles
			} else {
				now += c.chargeMiss(now, now+res.Cycles)
				if misses[pc] != decided {
					c.countMiss(text, pc, retired)
				}
				if c.OnLLCMiss != nil && c.sampled() {
					c.Now, c.Instructions, t.PC = now, retired, next
					c.OnLLCMiss(pc, addr)
					r[o.rd&15] = v
					return nil
				}
			}
			r[o.rd&15] = v
		case opLoadAhead:
			// An armed load (always the Idx form) host-prefetches the word
			// it will read d iterations on (lookahead.go). Its own word was
			// that prefetch d iterations ago, so unlike opLoad it issues
			// none now; otherwise this is opLoadIdx's body.
			c.dec.looks[o.look].run(r, memos, &memos[pc])
			addr := r[o.rs1&15] + o.imm + r[o.rs2&15]
			m := &memos[pc]
			w := m.word(addr)
			if w == nil {
				if w = m.refresh(as, addr); w == nil {
					t.Fault = &mem.Fault{Addr: addr}
					break loop
				}
			}
			res := hier.Access(uint64(pc), addr, now)
			v := *w
			if !res.LLCMiss {
				now += res.Cycles
			} else {
				now += c.chargeMiss(now, now+res.Cycles)
				if c.OnLLCMiss != nil && c.sampled() {
					c.Now, c.Instructions, t.PC = now, retired, next
					c.OnLLCMiss(pc, addr)
					r[o.rd&15] = v
					return nil
				}
			}
			r[o.rd&15] = v
		case opStoreIdx:
			idx = r[o.rs2&15]
			fallthrough
		case opStore:
			addr := r[o.rs1&15] + o.imm + idx
			m := &memos[pc]
			w := m.word(addr)
			if w == nil {
				if w = m.refresh(as, addr); w == nil {
					t.Fault = &mem.Fault{Addr: addr, Write: true}
					break loop
				}
			}
			*w = r[o.rd&15]
			// Stores occupy the fill path (write-allocate) but do not stall
			// the core: store-miss latency hides behind the store buffer.
			hier.Access(uint64(pc), addr, now)
		case opPrefetchIdx:
			idx = r[o.rs2&15]
			fallthrough
		case opPrefetch:
			addr := r[o.rs1&15] + o.imm + idx
			// Prefetch never faults: unmapped addresses are dropped. A
			// mapped one's word is prefetched on the host too, for the
			// demand access it runs ahead of.
			if as.Prefetch(addr) {
				hier.Prefetch(addr, now, cache.SoftwarePrefetch)
			}
		case opBrEQ:
			if r[o.rs1&15] == r[o.rs2&15] {
				next, now = o.target, now+branchCost
			}
		case opBrNE:
			if r[o.rs1&15] != r[o.rs2&15] {
				next, now = o.target, now+branchCost
			}
		case opBrLT:
			if r[o.rs1&15] < r[o.rs2&15] {
				next, now = o.target, now+branchCost
			}
		case opBrGE:
			if r[o.rs1&15] >= r[o.rs2&15] {
				next, now = o.target, now+branchCost
			}
		case opBrLE:
			if r[o.rs1&15] <= r[o.rs2&15] {
				next, now = o.target, now+branchCost
			}
		case opBrGT:
			if r[o.rs1&15] > r[o.rs2&15] {
				next, now = o.target, now+branchCost
			}
		case opBriEQ:
			if r[o.rs1&15] == o.imm {
				next, now = o.target, now+branchCost
			}
		case opBriNE:
			if r[o.rs1&15] != o.imm {
				next, now = o.target, now+branchCost
			}
		case opBriLT:
			if r[o.rs1&15] < o.imm {
				next, now = o.target, now+branchCost
			}
		case opBriGE:
			if r[o.rs1&15] >= o.imm {
				next, now = o.target, now+branchCost
			}
		case opBriLE:
			if r[o.rs1&15] <= o.imm {
				next, now = o.target, now+branchCost
			}
		case opBriGT:
			if r[o.rs1&15] > o.imm {
				next, now = o.target, now+branchCost
			}
		case opJmp:
			next, now = o.target, now+branchCost
		case opCall:
			r[isa.SP]--
			if !as.Write(r[isa.SP], uint64(next)) {
				t.Fault = &mem.Fault{Addr: r[isa.SP], Write: true}
				break loop
			}
			next, now = o.target, now+branchCost
		case opRet:
			v, ok := as.Read(r[isa.SP])
			if !ok {
				t.Fault = &mem.Fault{Addr: r[isa.SP]}
				break loop
			}
			r[isa.SP]++
			next, now = int(v), now+branchCost
		case opPush:
			r[isa.SP]--
			if !as.Write(r[isa.SP], r[o.rs1&15]) {
				t.Fault = &mem.Fault{Addr: r[isa.SP], Write: true}
				break loop
			}
		case opPop:
			v, ok := as.Read(r[isa.SP])
			if !ok {
				t.Fault = &mem.Fault{Addr: r[isa.SP]}
				break loop
			}
			r[isa.SP]++
			r[o.rd&15] = v
		case opHalt:
			t.Halted = true
			break loop
		default:
			// Code a tracer poked wrong: a crash, not a clean exit.
			t.Fault = &mem.Fault{Addr: uint64(pc)}
			err = fmt.Errorf("cpu: pc %d: illegal instruction %v", pc, text[pc])
			break loop
		}
	}
	c.Now, c.Instructions, t.PC = now, retired, next
	return err
}
