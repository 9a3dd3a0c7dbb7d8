package cpu

import (
	"math"
	"slices"

	"rpg2/internal/cfg"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// The host look-ahead (DESIGN.md §2.1 "Host prefetch") is RPG²'s prefetch
// kernel run for the interpreter's own host misses: a load op whose
// simulated LLC misses pass a fixed share of the instructions retired
// since the op table was built arms once, is sliced, and, if the slice is
// a[f(b[j])] with one load in its chain, in a loop with no Prefetch of its
// own, gets a compiled record that host-prefetches the word the load will
// read lookAheadIters iterations later. The record only reads memory and
// issues host prefetches, so no simulated state depends on it.
const (
	// lookAheadIters is d, the iterations the record runs ahead.
	lookAheadIters = 4
	// armShare gates arming: an op arms at a miss that brings its
	// simulated LLC misses to at least 1/armShare of the instructions
	// retired since the table was built, and to at least the LLC's line
	// count. A working set the LLC holds misses about once per line while
	// it warms, so its cold misses alone cannot arm an op.
	armShare = 64
	// decided marks an op's miss count once it has armed, for good or
	// not: the op is never counted or sliced again until the next build.
	decided = math.MaxUint32
	// maxSteps bounds f's ALU steps in a record.
	maxSteps = 4
)

// lookAhead is the compiled look-ahead of one armed load a[f(b[j])]: the
// index load b[j] (its PC, for its segment memo; the induction variable,
// the other address register under a mask that is zero when there is none,
// and the displacement moved d iterations on), f as ALU steps on the index
// word, and the demand load's other address register and displacement.
type lookAhead struct {
	idxPC  int
	iv, ib uint8
	ibMask uint64
	iImm   uint64
	db     uint8
	dImm   uint64
	n      uint8
	steps  [maxSteps]laStep
}

// laStep is one of f's ALU steps on the chain value v: v op imm, or v op
// r[other] with v on the left (or, for Sub, on the right when !left).
type laStep struct {
	kind  kind
	other uint8
	left  bool
	imm   uint64
}

// run host-prefetches the demand word d iterations ahead: the index word
// comes through the index load's memo and the demand word through the
// demand load's, dm. A word either memo does not hold is skipped; run
// refreshes no memo and writes nothing simulated.
func (la *lookAhead) run(r *[isa.NumRegs]uint64, memos []segMemo, dm *segMemo) {
	iw := memos[la.idxPC].word(r[la.iv&15] + r[la.ib&15]&la.ibMask + la.iImm)
	if iw == nil {
		return
	}
	v := *iw
	if la.n != 0 {
		v = la.f(v, r)
	}
	if w := dm.word(v + r[la.db&15] + la.dImm); w != nil {
		mem.HostPrefetch(w)
	}
}

// f applies the record's ALU steps to the index word.
func (la *lookAhead) f(v uint64, r *[isa.NumRegs]uint64) uint64 {
	for _, s := range la.steps[:la.n] {
		switch s.kind {
		case opMov:
		case opAddImm:
			v += s.imm
		case opSubImm:
			v -= s.imm
		case opMulImm:
			v *= s.imm
		case opShlImm:
			v <<= s.imm
		case opShrImm:
			v >>= s.imm
		case opAndImm:
			v &= s.imm
		case opAdd:
			v += r[s.other&15]
		case opSub:
			if s.left {
				v -= r[s.other&15]
			} else {
				v = r[s.other&15] - v
			}
		case opMul:
			v *= r[s.other&15]
		case opMin:
			v = min(v, r[s.other&15])
		}
	}
	return v
}

// countMiss is the gate, run for a load op's simulated LLC miss while the op
// is undecided: it counts the miss and, once the op's misses pass the
// share, arms the op once.
func (c *Core) countMiss(text []isa.Instr, pc int, retired uint64) {
	d := &c.dec
	n := d.misses[pc] + 1
	d.misses[pc] = n
	if n < c.armMisses || uint64(n)*armShare < retired-d.builtAt {
		return
	}
	d.misses[pc] = decided
	if la, ok := c.compile(text, pc); ok && len(d.looks) <= math.MaxUint16 {
		d.ops[pc].kind, d.ops[pc].look = opLoadAhead, uint16(len(d.looks))
		d.looks = append(d.looks, la)
	}
}

// compile slices the load at pc within its function in the core's symbol
// table and returns its record, if the slice is one a record can run.
func (c *Core) compile(text []isa.Instr, pc int) (lookAhead, bool) {
	if c.Funcs == nil {
		return lookAhead{}, false
	}
	i := slices.IndexFunc(*c.Funcs, func(f isa.Function) bool { return f.Contains(pc) })
	if i < 0 {
		return lookAhead{}, false
	}
	g, err := cfg.Build(text, (*c.Funcs)[i])
	if err != nil {
		return lookAhead{}, false
	}
	s, err := cfg.ComputeSlice(g, g.Loops(), pc)
	if err != nil || s.Category != cfg.IndirectInner || s.ViaStack {
		return lookAhead{}, false
	}
	// A loop that already holds a Prefetch (an f₁ binary's kernel) warms
	// the demand word's host line itself, through AddrSpace.Prefetch.
	for id := range s.KernelLoop.Blocks {
		b := g.Blocks[id]
		if slices.ContainsFunc(text[b.Start:b.End], func(in isa.Instr) bool { return in.Op == isa.Prefetch }) {
			return lookAhead{}, false
		}
	}
	invariant := func(r isa.Reg) bool { return r < isa.NumRegs && slices.Contains(s.Invariants, r) }
	// operands splits a load's address registers into the one that must
	// appear exactly once and the invariant other, NoReg if there is none.
	operands := func(in isa.Instr, want isa.Reg) (other uint8, ok bool) {
		regs := []isa.Reg{in.Rs1}
		if in.Rs2 != isa.NoReg {
			regs = append(regs, in.Rs2)
		}
		other, seen := uint8(isa.NoReg), 0
		for _, r := range regs {
			switch {
			case r == want:
				seen++
			case invariant(r):
				other = uint8(r)
			default:
				return 0, false
			}
		}
		return other, seen == 1
	}

	idx := text[s.Chain[0]]
	if idx.Op != isa.Load || idx.Rd >= isa.NumRegs {
		return lookAhead{}, false
	}
	other, ok := operands(idx, s.IV.Reg)
	if !ok || text[pc].Rs2 == isa.NoReg {
		return lookAhead{}, false
	}
	la := lookAhead{idxPC: s.Chain[0], iv: uint8(s.IV.Reg), ib: other, ibMask: ^uint64(0),
		iImm: uint64(idx.Imm + s.IV.Step*lookAheadIters)}
	if other == uint8(isa.NoReg) {
		la.ib, la.ibMask = 0, 0
	}
	cur := idx.Rd
	for _, q := range s.Chain[1:] {
		in := text[q]
		if int(la.n) == maxSteps || in.Rd >= isa.NumRegs {
			return lookAhead{}, false
		}
		st := laStep{kind: decode(in).kind, imm: uint64(in.Imm), other: uint8(isa.NoReg), left: true}
		switch st.kind {
		case opMov, opAddImm, opSubImm, opMulImm, opShlImm, opShrImm, opAndImm:
			if in.Rs1 != cur {
				return lookAhead{}, false
			}
		case opAdd, opSub, opMul, opMin:
			switch {
			case in.Rs1 == cur && in.Rs2 != cur && invariant(in.Rs2):
				st.other = uint8(in.Rs2)
			case in.Rs2 == cur && in.Rs1 != cur && invariant(in.Rs1):
				st.other, st.left = uint8(in.Rs1), false
			default:
				return lookAhead{}, false
			}
		default:
			return lookAhead{}, false
		}
		la.steps[la.n] = st
		la.n++
		cur = in.Rd
	}
	la.db, ok = operands(text[pc], cur)
	if !ok {
		return lookAhead{}, false
	}
	la.dImm = uint64(text[pc].Imm)
	return la, true
}
