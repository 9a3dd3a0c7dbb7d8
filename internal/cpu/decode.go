package cpu

import (
	"math/bits"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// kind is an op's one dense dispatch value: the opcode with its addressing
// mode (base or base+index) and, for branches, its condition folded in, so
// the interpreter's switch is one jump table and no case re-examines a field.
type kind uint8

const (
	// opBad is an unknown opcode, or an instruction naming a register
	// outside the file in a field its opcode reads or writes: a fault.
	opBad kind = iota
	opNop
	opInitDone
	opMovImm
	opMov
	opAdd
	opAddImm
	opSub
	opSubImm
	opMul
	opMulImm
	opShlImm
	opShrImm
	opAndImm
	opMin
	opLoad
	opLoadIdx
	opStore
	opStoreIdx
	opPrefetch
	opPrefetchIdx
	opBrEQ // opBrEQ..opBrGT follow isa.EQ..isa.GT
	opBrNE
	opBrLT
	opBrGE
	opBrLE
	opBrGT
	opBriEQ // opBriEQ..opBriGT follow isa.EQ..isa.GT
	opBriNE
	opBriLT
	opBriGE
	opBriLE
	opBriGT
	opJmp // also Br and BrImm on isa.Always
	opCall
	opRet
	opPush
	opPop
	opHalt
	// opLoadAhead is an armed opLoadIdx: a load with a host look-ahead
	// record (lookahead.go). No instruction decodes to it.
	opLoadAhead
)

// op is one decoded instruction: 24 bytes. Every register field its kind
// reads or writes was checked at decode, so the interpreter's r[x&15] never
// masks off a bit of one.
type op struct {
	imm          uint64
	target       int
	kind         kind
	rd, rs1, rs2 uint8
	// watched is set iff a watch on the core holds this PC.
	watched bool
	// look is the index of an opLoadAhead's record in decoded.looks.
	look uint16
}

// regShape names the register fields an opcode reads or writes.
type regShape uint8

const (
	useRd regShape = 1 << iota
	useRs1
	useRs2
	// useIdx is an Rs2 that may be NoReg (the base-only addressing mode).
	useIdx
)

// decoding gives each opcode its kind and register shape. Br and BrImm
// take their kind from the condition; opcodes past the table are opBad.
var decoding = [...]struct {
	kind  kind
	shape regShape
}{
	isa.Nop:      {opNop, 0},
	isa.MovImm:   {opMovImm, useRd},
	isa.Mov:      {opMov, useRd | useRs1},
	isa.Add:      {opAdd, useRd | useRs1 | useRs2},
	isa.AddImm:   {opAddImm, useRd | useRs1},
	isa.Sub:      {opSub, useRd | useRs1 | useRs2},
	isa.SubImm:   {opSubImm, useRd | useRs1},
	isa.Mul:      {opMul, useRd | useRs1 | useRs2},
	isa.MulImm:   {opMulImm, useRd | useRs1},
	isa.ShlImm:   {opShlImm, useRd | useRs1},
	isa.ShrImm:   {opShrImm, useRd | useRs1},
	isa.AndImm:   {opAndImm, useRd | useRs1},
	isa.Min:      {opMin, useRd | useRs1 | useRs2},
	isa.Load:     {opLoad, useRd | useRs1 | useIdx},
	isa.Store:    {opStore, useRd | useRs1 | useIdx},
	isa.Prefetch: {opPrefetch, useRs1 | useIdx},
	isa.Br:       {opBrEQ, useRs1 | useRs2},
	isa.BrImm:    {opBriEQ, useRs1},
	isa.Jmp:      {opJmp, 0},
	isa.Call:     {opCall, 0},
	isa.Ret:      {opRet, 0},
	isa.Push:     {opPush, useRs1},
	isa.Pop:      {opPop, useRd},
	isa.InitDone: {opInitDone, 0},
	isa.Halt:     {opHalt, 0},
}

// decode folds one instruction into an op, watched bit clear.
func decode(in isa.Instr) op {
	o := op{imm: uint64(in.Imm), target: in.Target, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
	if int(in.Op) >= len(decoding) {
		return o // opBad
	}
	d := decoding[in.Op]
	bad := d.shape&useRd != 0 && in.Rd >= isa.NumRegs ||
		d.shape&useRs1 != 0 && in.Rs1 >= isa.NumRegs ||
		d.shape&useRs2 != 0 && in.Rs2 >= isa.NumRegs ||
		d.shape&useIdx != 0 && in.Rs2 >= isa.NumRegs && in.Rs2 != isa.NoReg
	if bad {
		return o
	}
	o.kind = d.kind
	switch {
	case d.shape&useIdx != 0 && in.Rs2 != isa.NoReg:
		o.kind++ // the Idx form follows the base-only one
	case in.Op == isa.Br || in.Op == isa.BrImm:
		switch {
		case in.Cond == isa.Always:
			o.kind = opJmp
		case in.Cond > isa.GT:
			o.kind = opNop // Cond.Holds is false: never taken
		default:
			o.kind += kind(in.Cond - isa.EQ)
		}
	}
	return o
}

// watchStamp is one attached watch as the table's watched bits saw it.
type watchStamp struct {
	w   *Watch
	gen uint64
}

// decoded is a core's op table for the text it last ran, and what the table
// was built from: the text's address, length and edit generation, and the
// watch set its watched bits reflect. Beside it, one segment memo per op,
// and the address space the memos were filled from; and the host
// look-ahead's state since the table was built: each op's simulated LLC
// misses (or decided), the retired count at the build, and the records of
// the armed ops.
type decoded struct {
	ops     []op
	base    *isa.Instr
	gen     uint64
	watches []watchStamp
	memos   []segMemo
	as      *mem.AddrSpace
	misses  []uint32
	builtAt uint64
	looks   []lookAhead
}

// segMemo is the segment an op's load or store last touched: its base and
// backing words. Segments are never unmapped or moved, so a memo is right
// about every address it holds for as long as its address space lives; the
// zero memo holds none.
type segMemo struct {
	base mem.Addr
	data []uint64
}

// word returns the address's word if the memo's segment holds it, and nil
// otherwise: a nil from word is decided by refresh.
func (m *segMemo) word(a mem.Addr) *uint64 {
	if i := a - m.base; i < uint64(len(m.data)) {
		return &m.data[i]
	}
	return nil
}

// refresh points the memo at the segment of as holding the address and
// returns the address's word, or returns nil if as does not map it.
func (m *segMemo) refresh(as *mem.AddrSpace, a mem.Addr) *uint64 {
	s := as.Lookup(a)
	if s == nil {
		return nil
	}
	m.base, m.data = s.Base, s.Data
	return &s.Data[a-s.Base]
}

// memosFor returns the core's segment memos for an op table of n ops run
// against as. Memos filled from another address space are cleared; a text
// rebuild only resizes them, since the bounds test decides for any op.
func (c *Core) memosFor(as *mem.AddrSpace, n int) []segMemo {
	d := &c.dec
	if as != d.as {
		d.as = as
		clear(d.memos[:cap(d.memos)]) // past len too: no stale segment kept alive
	}
	if n <= len(d.memos) {
		d.memos = d.memos[:n]
	} else {
		d.memos = append(d.memos, make([]segMemo, n-len(d.memos))...)
	}
	return d.memos
}

// opsFor returns the core's op table for text, rebuilding it when the text
// or the watch set may have changed since it was built. RunUntil calls it on
// entry: every hook returns from RunUntil, so nothing changes either while
// the table is in use. A rebuild drops the look-ahead records and restarts
// the gate's counts.
func (c *Core) opsFor(text []isa.Instr) []op {
	d := &c.dec
	var base *isa.Instr
	if len(text) > 0 {
		base = &text[0]
	}
	var gen uint64
	if c.TextGen != nil {
		gen = *c.TextGen
	}
	if base == d.base && len(text) == len(d.ops) && gen == d.gen && c.sameWatches() {
		return d.ops
	}
	d.base, d.gen = base, gen
	d.ops = d.ops[:0]
	for _, in := range text {
		d.ops = append(d.ops, decode(in))
	}
	c.markWatched()
	d.misses = append(d.misses[:0], make([]uint32, len(d.ops))...)
	d.builtAt = c.Instructions
	d.looks = d.looks[:0]
	return d.ops
}

func (c *Core) sameWatches() bool {
	if len(c.Watches) != len(c.dec.watches) {
		return false
	}
	for i, w := range c.Watches {
		if c.dec.watches[i] != (watchStamp{w, w.gen}) {
			return false
		}
	}
	return true
}

// markWatched sets the freshly decoded ops' watched bits from the core's
// watches.
func (c *Core) markWatched() {
	d := &c.dec
	d.watches = d.watches[:0]
	for _, w := range c.Watches {
		d.watches = append(d.watches, watchStamp{w, w.gen})
		for i, word := range w.bits {
			for ; word != 0; word &= word - 1 {
				if pc := i<<6 + bits.TrailingZeros64(word); pc < len(d.ops) {
					d.ops[pc].watched = true
				}
			}
		}
	}
}
