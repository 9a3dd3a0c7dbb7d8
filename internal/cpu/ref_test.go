package cpu

import (
	"fmt"
	"testing"

	"rpg2/internal/cache"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// refRunUntil is RunUntil as it was before the decoded op table, kept
// verbatim (but for taking the core as an argument) as the reference the
// table-driven loop must equal: one switch over isa.Instr per instruction,
// every watch consulted on every retirement. It panics on a register field
// outside the file, where RunUntil faults the thread.
func refRunUntil(c *Core, t *Thread, text []isa.Instr, as *mem.AddrSpace, bound uint64) error {
	if !t.Runnable() {
		return nil
	}
	var err error
	r := &t.Regs
	watches := c.Watches
	hier := c.hier
	branchCost := c.cfg.BranchCost
	now, retired, next := c.Now, c.Instructions, t.PC
loop:
	for now < bound {
		pc := next
		if uint(pc) >= uint(len(text)) {
			t.Fault = &mem.Fault{Addr: uint64(pc)}
			err = fmt.Errorf("cpu: pc %d outside text segment", pc)
			break loop
		}
		in := &text[pc]
		next++
		now++
		retired++
		for _, w := range watches {
			if w.has(pc) {
				w.Count++
			}
		}

		switch in.Op {
		case isa.Nop:
		case isa.InitDone:
			if c.OnInitDone != nil {
				c.Now, c.Instructions, t.PC = now, retired, next
				c.OnInitDone()
				return nil
			}
		case isa.MovImm:
			r[in.Rd] = uint64(in.Imm)
		case isa.Mov:
			r[in.Rd] = r[in.Rs1]
		case isa.Add:
			r[in.Rd] = r[in.Rs1] + r[in.Rs2]
		case isa.AddImm:
			r[in.Rd] = r[in.Rs1] + uint64(in.Imm)
		case isa.Sub:
			r[in.Rd] = r[in.Rs1] - r[in.Rs2]
		case isa.SubImm:
			r[in.Rd] = r[in.Rs1] - uint64(in.Imm)
		case isa.Mul:
			r[in.Rd] = r[in.Rs1] * r[in.Rs2]
		case isa.MulImm:
			r[in.Rd] = r[in.Rs1] * uint64(in.Imm)
		case isa.ShlImm:
			r[in.Rd] = r[in.Rs1] << uint64(in.Imm)
		case isa.ShrImm:
			r[in.Rd] = r[in.Rs1] >> uint64(in.Imm)
		case isa.AndImm:
			r[in.Rd] = r[in.Rs1] & uint64(in.Imm)
		case isa.Min:
			a, b := r[in.Rs1], r[in.Rs2]
			if b < a {
				a = b
			}
			r[in.Rd] = a
		case isa.Load:
			addr := r[in.Rs1] + uint64(in.Imm)
			if in.Rs2 != isa.NoReg {
				addr += r[in.Rs2]
			}
			v, ok := as.Read(addr)
			if !ok {
				t.Fault = &mem.Fault{Addr: addr}
				break loop
			}
			// Cache hits pay their level latency directly; LLC misses
			// enter the MLP window and fire the hook, which still runs
			// before the load's write-back.
			if res := hier.Access(uint64(pc), addr, now); !res.LLCMiss {
				now += res.Cycles
			} else {
				now += refChargeMiss(c, now, now+res.Cycles)
				if c.OnLLCMiss != nil {
					c.Now, c.Instructions, t.PC = now, retired, next
					c.OnLLCMiss(pc, addr)
					r[in.Rd] = v
					return nil
				}
			}
			r[in.Rd] = v
		case isa.Store:
			addr := r[in.Rs1] + uint64(in.Imm)
			if in.Rs2 != isa.NoReg {
				addr += r[in.Rs2]
			}
			if !as.Write(addr, r[in.Rd]) {
				t.Fault = &mem.Fault{Addr: addr, Write: true}
				break loop
			}
			// Stores occupy the fill path (write-allocate) but do not stall
			// the core: store-miss latency hides behind the store buffer.
			hier.Access(uint64(pc), addr, now)
		case isa.Prefetch:
			addr := r[in.Rs1] + uint64(in.Imm)
			if in.Rs2 != isa.NoReg {
				addr += r[in.Rs2]
			}
			// Prefetch never faults: unmapped addresses are dropped.
			if as.Mapped(addr) {
				hier.Prefetch(addr, now, cache.SoftwarePrefetch)
			}
		case isa.Br:
			if in.Cond.Holds(r[in.Rs1], r[in.Rs2]) {
				next = in.Target
				now += branchCost
			}
		case isa.BrImm:
			if in.Cond.Holds(r[in.Rs1], uint64(in.Imm)) {
				next = in.Target
				now += branchCost
			}
		case isa.Jmp:
			next = in.Target
			now += branchCost
		case isa.Call:
			r[isa.SP]--
			if !as.Write(r[isa.SP], uint64(next)) {
				t.Fault = &mem.Fault{Addr: r[isa.SP], Write: true}
				break loop
			}
			next = in.Target
			now += branchCost
		case isa.Ret:
			v, ok := as.Read(r[isa.SP])
			if !ok {
				t.Fault = &mem.Fault{Addr: r[isa.SP]}
				break loop
			}
			r[isa.SP]++
			next = int(v)
			now += branchCost
		case isa.Push:
			r[isa.SP]--
			if !as.Write(r[isa.SP], r[in.Rs1]) {
				t.Fault = &mem.Fault{Addr: r[isa.SP], Write: true}
				break loop
			}
		case isa.Pop:
			v, ok := as.Read(r[isa.SP])
			if !ok {
				t.Fault = &mem.Fault{Addr: r[isa.SP]}
				break loop
			}
			r[isa.SP]++
			r[in.Rd] = v
		case isa.Halt:
			t.Halted = true
			break loop
		default:
			// Code a tracer poked wrong: a crash, not a clean exit.
			t.Fault = &mem.Fault{Addr: uint64(pc)}
			err = fmt.Errorf("cpu: pc %d: unknown opcode %v", pc, in.Op)
			break loop
		}
	}
	c.Now, c.Instructions, t.PC = now, retired, next
	return err
}

// refChargeMiss is the MLP window as it was before the ring, kept verbatim
// (but for taking the core as an argument) for refRunUntil: the window is
// c.outstanding oldest first, shifted down by one when a miss retires the
// oldest of a full window. ResetWindow empties it for both loops.
func refChargeMiss(c *Core, now, completion uint64) uint64 {
	if len(c.outstanding) < c.cfg.MLP {
		c.outstanding = append(c.outstanding, completion)
		return 0
	}
	// Window full: wait for the oldest outstanding miss to retire.
	oldest := c.outstanding[0]
	copy(c.outstanding, c.outstanding[1:])
	c.outstanding[len(c.outstanding)-1] = completion
	if oldest > now {
		return oldest - now
	}
	return 0
}

// RefRunUntil exports the reference to the package's external tests.
var RefRunUntil = refRunUntil

// fuzzProgram decodes a random instruction stream, seven bytes an
// instruction: opcode, condition, rd, rs1, rs2, immediate and target.
// Opcodes are mostly known and otherwise any unknown byte; conditions run
// past GT; immediates are mostly small and sometimes large or negative; a
// register field is mostly r0..r15, sometimes NoReg and sometimes
// one of 16..254; targets reach one past either end of the text.
func fuzzProgram(data []byte) []isa.Instr {
	n := len(data) / 7
	reg := func(b byte) isa.Reg {
		switch {
		case b < 208:
			return isa.Reg(b % isa.NumRegs)
		case b < 224:
			return isa.NoReg
		default:
			return isa.Reg(16 + int(b-224)*238/31)
		}
	}
	text := make([]isa.Instr, n)
	for i := range text {
		b := data[7*i : 7*i+7]
		op := isa.Op(b[0] % 26) // 25 is the first unknown opcode
		if b[0] >= 234 {
			op = isa.Op(b[0])
		}
		imm := int64(b[5] % 24) // small, like register values, offsets and shift counts
		if b[5] >= 192 {
			imm = int64(int8(b[5])) << (b[5] % 8 * 8)
		}
		text[i] = isa.Instr{Op: op, Cond: isa.Cond(b[1] % 9), Rd: reg(b[2]), Rs1: reg(b[3]), Rs2: reg(b[4]),
			Imm: imm, Target: int(b[6])%(n+2) - 1}
	}
	return text
}

// fuzzRig is one interpreter's machine for a fuzzed program: a core on a
// small hierarchy with the stride engine on and a one-function symbol table
// over the whole text (so hot loads arm the host look-ahead), a thread
// whose even registers point into a data segment, and what the flags
// attach.
type fuzzRig struct {
	core   *Core
	th     *Thread
	as     *mem.AddrSpace
	data   *mem.Segment
	watch  *Watch
	misses int
}

func newFuzzRig(text []isa.Instr, flags byte) *fuzzRig {
	h := cache.New(cache.Config{
		L1:     cache.LevelConfig{Name: "L1d", Lines: 8, Assoc: 2, Latency: 1},
		L2:     cache.LevelConfig{Name: "L2", Lines: 16, Assoc: 2, Latency: 10},
		L3:     cache.LevelConfig{Name: "L3", Lines: 32, Assoc: 4, Latency: 30},
		DRAM:   cache.DRAMConfig{Latency: 100, ServiceCycles: 4, MSHRs: 4},
		Stride: cache.StrideConfig{Enabled: true, TableSize: 8, Confidence: 1, Degree: 2},
	})
	g := &fuzzRig{core: New(Config{MLP: 2, BranchCost: 1}, h), th: &Thread{}, as: mem.NewAddrSpace()}
	g.core.Funcs = &[]isa.Function{{Name: "fuzz", Size: len(text)}}
	g.data = g.as.Alloc("data", 1024)
	for i := range g.data.Data {
		g.data.Data[i] = uint64(i * 3)
	}
	for i := range g.th.Regs {
		g.th.Regs[i] = uint64(i)
		if i%2 == 0 {
			g.th.Regs[i] = g.data.Base + uint64(i*40)
		}
	}
	g.th.Regs[isa.SP] = g.as.Alloc("stack", 64).End()
	if flags&1 != 0 {
		var pcs []int
		for pc := 0; pc < len(text); pc += 3 {
			pcs = append(pcs, pc)
		}
		g.watch = NewWatch(pcs)
		g.core.Watches = []*Watch{g.watch}
	}
	if flags&2 != 0 {
		g.core.OnLLCMiss = func(int, mem.Addr) { g.misses++ }
	}
	return g
}

// state is what a rig's interpreter has left behind, comparable.
type fuzzState struct {
	regs         [isa.NumRegs]uint64
	pc           int
	now, retired uint64
	halted       bool
	fault        mem.Fault
	faulted      bool
	watched      uint64
	misses       int
	stats        cache.Stats
	dataSum      uint64
}

func (g *fuzzRig) state() fuzzState {
	s := fuzzState{regs: g.th.Regs, pc: g.th.PC, now: g.core.Now, retired: g.core.Instructions, halted: g.th.Halted,
		faulted: g.th.Fault != nil, misses: g.misses, stats: g.core.Hierarchy().Stats()}
	if g.th.Fault != nil {
		s.fault = *g.th.Fault
	}
	if g.watch != nil {
		s.watched = g.watch.Count
	}
	for i, v := range g.data.Data {
		s.dataSum = s.dataSum*31 + v ^ uint64(i)
	}
	return s
}

// illegalRegs reports whether in names a register outside the file in a
// field its opcode reads or writes, by isa's def/use lists. The reference
// panics on such an instruction, or first takes a memory fault where it
// touches memory before the bad register; RunUntil faults it as illegal.
func illegalRegs(in isa.Instr) bool {
	writes := in
	writes.Rd = 0
	if writes.Defs() == 0 && in.Rd >= isa.NumRegs {
		return true
	}
	for _, r := range in.Uses(nil) {
		if r >= isa.NumRegs {
			return true
		}
	}
	return false
}

// FuzzRunUntilMatchesReference runs a random instruction stream under
// RunUntil, to a series of bounds, and under the reference one instruction
// at a time, with and without a watch and an OnLLCMiss hook (flags bits 0
// and 1), and compares every observable after each bound. Where the
// reference reaches an instruction with a register outside the file,
// RunUntil must have faulted the thread there, as for an unknown opcode,
// from the same state.
func FuzzRunUntilMatchesReference(f *testing.F) {
	f.Add(byte(3), []byte{
		byte(isa.Load), 0, 1, 0, byte(isa.NoReg), 0, 0,
		byte(isa.AddImm), 0, 0, 0, byte(isa.NoReg), 8, 0,
		byte(isa.BrImm), byte(isa.LT), 0, 1, byte(isa.NoReg), 100, 0,
		byte(isa.Halt), 0, 0, 0, 0, 0, 0,
	})
	f.Add(byte(1), []byte{byte(isa.Add), 0, 240, 1, 2, 0, 0, byte(isa.Halt), 0, 0, 0, 0, 0, 0})
	f.Add(byte(0), []byte{byte(isa.Call), 0, 0, 0, 0, 0, 2, 200, 0, 0, 0, 0, 0, 0, byte(isa.Ret), 0, 0, 0, 0, 0, 0})
	f.Add(byte(2), []byte{byte(isa.Br), 8, 1, 2, 3, 0, 0, byte(isa.Jmp), 0, 0, 0, 0, 0, 9})
	// Every condition on below, equal and above, each branch skipping a
	// counting AddImm when taken (r1 = 1, r3 = 3).
	var branches []byte
	for c := byte(0); c < 9; c++ {
		for _, b := range [][2]byte{{byte(isa.BrImm), 0}, {byte(isa.BrImm), 1}, {byte(isa.BrImm), 2}, {byte(isa.Br), 1}, {byte(isa.Br), 3}} {
			pc := byte(len(branches) / 7)
			branches = append(branches, b[0], c, 0, 1, b[1], b[1], pc+3, // target pc+2
				byte(isa.AddImm), 0, 5, 5, byte(isa.NoReg), 1, 0)
		}
	}
	f.Add(byte(1), branches)
	// One load and one store PC each alternating between the data and the
	// stack segment (r2 and r4 swap every iteration), r2 stepping down
	// until one of them lands in a guard gap: the segment memo's refresh
	// and its miss. Base-only (208 decodes to NoReg) and indexed forms.
	for _, v := range []struct{ flags, idx, step byte }{{3, 208, 200}, {2 | 2<<2, 5, 248}} {
		f.Add(v.flags, []byte{
			byte(isa.Mov), 0, 4, byte(isa.SP), 208, 0, 0,
			byte(isa.AddImm), 0, 4, 4, 208, 248, 0, // r4 = SP-8, in the stack
			byte(isa.Load), 0, 1, 2, v.idx, 0, 0,
			byte(isa.Store), 0, 1, 4, v.idx, 0, 0,
			byte(isa.Mov), 0, 3, 2, 208, 0, 0,
			byte(isa.Mov), 0, 2, 4, 208, 0, 0,
			byte(isa.Mov), 0, 4, 3, 208, 0, 0,
			byte(isa.AddImm), 0, 2, 2, 208, v.step, 0, // -56 or -8
			byte(isa.Jmp), 0, 0, 0, 0, 0, 3, // to the load
		})
	}
	// a[b[i]]: r2 walks b and r4 is a's base, both in the data segment;
	// t = (b[i]&23)<<5 keeps a[t] in it, on lines that crowd two L3 sets,
	// so the demand load (pc 4) misses until it arms the look-ahead, whose
	// record applies the AndImm and the ShlImm. The latch's immediate
	// (-56) never lets the loop end before the bound does.
	f.Add(byte(3|8<<2), []byte{
		byte(isa.MovImm), 0, 1, 208, 208, 0, 0, // i = 0
		byte(isa.Load), 0, 3, 2, 1, 0, 0, // t = b[i]
		byte(isa.AndImm), 0, 6, 3, 208, 23, 0,
		byte(isa.ShlImm), 0, 7, 6, 208, 5, 0,
		byte(isa.Load), 0, 5, 4, 7, 0, 0, // v = a[t]
		byte(isa.AddImm), 0, 1, 1, 208, 1, 0, // i++
		byte(isa.BrImm), byte(isa.LT), 0, 1, 208, 200, 2, // to pc 1
		byte(isa.Halt), 0, 0, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, flags byte, prog []byte) {
		text := fuzzProgram(prog)
		got, ref := newFuzzRig(text, flags), newFuzzRig(text, flags)
		var gotErr, refErr error
		for bound := uint64(0); bound < 3000 && got.th.Runnable(); {
			bound += 1 + uint64(flags>>2)*uint64(len(text)%7+1)
			for gotErr == nil && got.th.Runnable() && got.core.Now < bound {
				gotErr = got.core.RunUntil(got.th, text, got.as, bound)
			}
			for refErr == nil && ref.th.Runnable() && ref.core.Now < bound {
				if pc := ref.th.PC; pc >= 0 && pc < len(text) && illegalRegs(text[pc]) {
					want := ref.state()
					want.pc, want.now, want.retired = pc+1, want.now+1, want.retired+1
					want.faulted, want.fault = true, mem.Fault{Addr: uint64(pc)}
					if got.watch != nil && got.watch.has(pc) {
						want.watched++
					}
					if g := got.state(); gotErr == nil || g != want {
						t.Fatalf("pc %d: %v is illegal; RunUntil left error %v and\n%+v\nwant\n%+v", pc, text[pc], gotErr, g, want)
					}
					return
				}
				refErr = refRunUntil(ref.core, ref.th, text, ref.as, ref.core.Now+1)
			}
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("bound %d: RunUntil error %v, reference %v", bound, gotErr, refErr)
			}
			if g, r := got.state(), ref.state(); g != r {
				t.Fatalf("bound %d: RunUntil left\n%+v\nthe reference\n%+v", bound, g, r)
			}
		}
	})
}

// ArmedPCs lists the PCs of the core's armed loads, for the external tests.
func ArmedPCs(c *Core) []int {
	var pcs []int
	for pc, o := range c.dec.ops {
		if o.kind == opLoadAhead {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}
