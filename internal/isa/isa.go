// Package isa defines the instruction set of the simulated machine that the
// RPG² reproduction operates on.
//
// The ISA is deliberately small but shaped like the subset of x86-64 that the
// paper's BOLT pass manipulates: a register file, loads and stores with
// base+index+displacement addressing, arithmetic with editable immediates
// (the prefetch distance lives in such an immediate, just as x86 encodes it
// in a displacement), explicit software prefetch instructions that are
// architectural NOPs, compare-and-branch control flow, calls and returns, and
// push/pop for register spills. Memory is word addressed: one address unit is
// one 64-bit word, and a cache line holds LineWords words.
package isa

import "fmt"

// Reg names one of the sixteen general-purpose registers r0..r15.
// By software convention SP (r15) is the stack pointer.
type Reg uint8

// NumRegs is the size of the architectural register file.
const NumRegs = 16

// SP is the register conventionally used as the stack pointer.
const SP Reg = 15

// LineWords is the number of 64-bit words per cache line (64-byte lines).
const LineWords = 8

func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", r)
}

// Op enumerates the instruction opcodes.
type Op uint8

// The opcode space. Def/use relationships for each opcode are reported by
// Instr.Defs and Instr.Uses and drive the backward-slicing analysis in
// package bolt.
const (
	// Nop does nothing. Patched-out instructions become Nops.
	Nop Op = iota
	// MovImm loads a 64-bit immediate: rd = imm.
	MovImm
	// Mov copies a register: rd = rs1.
	Mov
	// Add is three-operand addition: rd = rs1 + rs2.
	Add
	// AddImm adds an immediate: rd = rs1 + imm. RPG² encodes the prefetch
	// distance as the immediate of an AddImm, so runtime distance edits
	// rewrite exactly this field.
	AddImm
	// Sub is three-operand subtraction: rd = rs1 - rs2.
	Sub
	// SubImm subtracts an immediate: rd = rs1 - imm.
	SubImm
	// Mul is three-operand multiplication: rd = rs1 * rs2.
	Mul
	// MulImm multiplies by an immediate: rd = rs1 * imm.
	MulImm
	// ShlImm shifts left by an immediate: rd = rs1 << imm.
	ShlImm
	// ShrImm shifts right (logical) by an immediate: rd = rs1 >> imm.
	ShrImm
	// AndImm masks with an immediate: rd = rs1 & imm.
	AndImm
	// Min computes rd = min(rs1, rs2) treating values as unsigned.
	Min
	// Load reads memory: rd = mem[rs1 + rs2 + imm]. Rs2 may be NoReg.
	Load
	// Store writes memory: mem[rs1 + rs2 + imm] = rd. Rs2 may be NoReg.
	Store
	// Prefetch requests the line containing mem[rs1 + rs2 + imm] without
	// reading data or faulting; it is an architectural NOP.
	Prefetch
	// Br conditionally branches to Target when Cond holds of (rs1, rs2).
	Br
	// BrImm conditionally branches to Target when Cond holds of (rs1, imm).
	BrImm
	// Jmp unconditionally branches to Target.
	Jmp
	// Call pushes the return PC on the stack and jumps to Target. Call
	// sites are what RPG² patches when redirecting f0 to f1.
	Call
	// Ret pops a return PC from the stack and jumps to it.
	Ret
	// Push spills a register: sp -= 1; mem[sp] = rs1.
	Push
	// Pop reloads a register: rd = mem[sp]; sp += 1.
	Pop
	// InitDone signals the end of the program's initialisation phase.
	// The paper modifies each benchmark to emit this signal so that
	// profiling skips the init phase (§4.1).
	InitDone
	// Halt terminates the thread.
	Halt
	opCount
)

var opNames = [opCount]string{
	Nop: "nop", MovImm: "movi", Mov: "mov", Add: "add", AddImm: "addi",
	Sub: "sub", SubImm: "subi", Mul: "mul", MulImm: "muli", ShlImm: "shli",
	ShrImm: "shri", AndImm: "andi", Min: "min", Load: "load", Store: "store",
	Prefetch: "prefetch", Br: "br", BrImm: "bri", Jmp: "jmp", Call: "call",
	Ret: "ret", Push: "push", Pop: "pop", InitDone: "initdone", Halt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NoReg marks an unused register slot in an instruction.
const NoReg Reg = 0xFF

// Cond enumerates branch conditions.
type Cond uint8

// Branch conditions compare two unsigned 64-bit values.
const (
	// Always is used by Jmp-like encodings; Br with Always always takes.
	Always Cond = iota
	// EQ branches when rs1 == rs2 (or imm).
	EQ
	// NE branches when rs1 != rs2 (or imm).
	NE
	// LT branches when rs1 < rs2 (unsigned).
	LT
	// GE branches when rs1 >= rs2 (unsigned). RPG²'s bounds checks invert
	// a loop latch's LT into GE (§3.2.3).
	GE
	// LE branches when rs1 <= rs2 (unsigned).
	LE
	// GT branches when rs1 > rs2 (unsigned).
	GT
)

func (c Cond) String() string {
	switch c {
	case Always:
		return "always"
	case EQ:
		return "eq"
	case NE:
		return "ne"
	case LT:
		return "lt"
	case GE:
		return "ge"
	case LE:
		return "le"
	case GT:
		return "gt"
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Holds reports whether the condition is satisfied by the pair (a, b).
func (c Cond) Holds(a, b uint64) bool {
	switch c {
	case Always:
		return true
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case GE:
		return a >= b
	case LE:
		return a <= b
	case GT:
		return a > b
	}
	return false
}

// Instr is a single decoded instruction. PCs are indices into a text segment
// ([]Instr); Target is an absolute PC for control transfers.
type Instr struct {
	Op     Op
	Cond   Cond
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	Target int
}

// MakeNop returns an instruction that does nothing.
func MakeNop() Instr {
	return Instr{Op: Nop, Rd: NoReg, Rs1: NoReg, Rs2: NoReg}
}

// Defs returns the register written by the instruction, or NoReg.
func (in Instr) Defs() Reg {
	switch in.Op {
	case MovImm, Mov, Add, AddImm, Sub, SubImm, Mul, MulImm,
		ShlImm, ShrImm, AndImm, Min, Load, Pop:
		return in.Rd
	}
	return NoReg
}

// Uses appends the registers read by the instruction to dst and returns it,
// the implicit SP of Push/Pop/Call/Ret included. Together with Defs it is
// the ISA's def/use specification: the reference fuzz rig checks every
// register field a generated instruction carries against it.
func (in Instr) Uses(dst []Reg) []Reg {
	switch in.Op {
	case Mov:
		dst = append(dst, in.Rs1)
	case Add, Sub, Mul, Min:
		dst = append(dst, in.Rs1, in.Rs2)
	case AddImm, SubImm, MulImm, ShlImm, ShrImm, AndImm:
		dst = append(dst, in.Rs1)
	case Load, Prefetch:
		dst = append(dst, in.Rs1)
		if in.Rs2 != NoReg {
			dst = append(dst, in.Rs2)
		}
	case Store:
		dst = append(dst, in.Rd, in.Rs1)
		if in.Rs2 != NoReg {
			dst = append(dst, in.Rs2)
		}
	case Br:
		dst = append(dst, in.Rs1, in.Rs2)
	case BrImm:
		dst = append(dst, in.Rs1)
	case Push:
		dst = append(dst, in.Rs1, SP)
	case Pop, Ret:
		dst = append(dst, SP)
	case Call:
		dst = append(dst, SP)
	}
	return dst
}

// IsBranch reports whether the instruction may transfer control to Target.
func (in Instr) IsBranch() bool {
	switch in.Op {
	case Br, BrImm, Jmp, Call:
		return true
	}
	return false
}

// IsTerminator reports whether control never falls through to the next
// instruction.
func (in Instr) IsTerminator() bool {
	switch in.Op {
	case Jmp, Ret, Halt:
		return true
	case Br, BrImm:
		return in.Cond == Always
	}
	return false
}

// String renders the instruction in a readable assembly-like syntax.
func (in Instr) String() string {
	idx := func() string {
		if in.Rs2 != NoReg {
			return fmt.Sprintf("[%s+%s%+d]", in.Rs1, in.Rs2, in.Imm)
		}
		return fmt.Sprintf("[%s%+d]", in.Rs1, in.Imm)
	}
	switch in.Op {
	case Nop:
		return "nop"
	case MovImm:
		return fmt.Sprintf("movi %s, %d", in.Rd, in.Imm)
	case Mov:
		return fmt.Sprintf("mov %s, %s", in.Rd, in.Rs1)
	case Add, Sub, Mul, Min:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	case AddImm, SubImm, MulImm, ShlImm, ShrImm, AndImm:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case Load:
		return fmt.Sprintf("load %s, %s", in.Rd, idx())
	case Store:
		return fmt.Sprintf("store %s, %s", idx(), in.Rd)
	case Prefetch:
		return fmt.Sprintf("prefetch %s", idx())
	case Br:
		return fmt.Sprintf("br.%s %s, %s, @%d", in.Cond, in.Rs1, in.Rs2, in.Target)
	case BrImm:
		return fmt.Sprintf("bri.%s %s, %d, @%d", in.Cond, in.Rs1, in.Imm, in.Target)
	case Jmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case Call:
		return fmt.Sprintf("call @%d", in.Target)
	case Ret:
		return "ret"
	case Push:
		return fmt.Sprintf("push %s", in.Rs1)
	case Pop:
		return fmt.Sprintf("pop %s", in.Rd)
	case InitDone:
		return "initdone"
	case Halt:
		return "halt"
	}
	return fmt.Sprintf("%s rd=%s rs1=%s rs2=%s imm=%d @%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm, in.Target)
}
