package isa

import (
	"fmt"
	"sort"
)

// Function describes one function's extent inside a Binary's text segment.
// PCs in [Entry, Entry+Size) belong to the function.
type Function struct {
	Name  string
	Entry int
	Size  int
}

// Contains reports whether the global PC lies within the function.
func (f Function) Contains(pc int) bool { return pc >= f.Entry && pc < f.Entry+f.Size }

// Binary is the executable artifact the simulated loader consumes: a flat
// text segment of instructions plus a symbol table. It is the analogue of an
// ELF executable; package bolt produces rewritten Binaries from it.
type Binary struct {
	// Text is the flat instruction stream. Control-flow targets are
	// absolute indices into Text.
	Text []Instr
	// Funcs lists the functions, sorted by Entry.
	Funcs []Function
	// EntryName names the function where execution begins.
	EntryName string
}

// Entry returns the PC of the binary's entry function.
func (b *Binary) Entry() (int, error) {
	f, ok := b.Func(b.EntryName)
	if !ok {
		return 0, fmt.Errorf("isa: binary has no entry function %q", b.EntryName)
	}
	return f.Entry, nil
}

// Func looks up a function by name.
func (b *Binary) Func(name string) (Function, bool) {
	for _, f := range b.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return Function{}, false
}

// FuncAt returns the function containing the global PC.
func (b *Binary) FuncAt(pc int) (Function, bool) {
	i := sort.Search(len(b.Funcs), func(i int) bool { return b.Funcs[i].Entry > pc })
	if i == 0 {
		return Function{}, false
	}
	f := b.Funcs[i-1]
	if !f.Contains(pc) {
		return Function{}, false
	}
	return f, true
}

// Clone returns a deep copy of the binary. Rewriters copy before mutating so
// the original binary remains intact (RPG² keeps f0 in place for rollback).
func (b *Binary) Clone() *Binary {
	nb := &Binary{
		Text:      append([]Instr(nil), b.Text...),
		Funcs:     append([]Function(nil), b.Funcs...),
		EntryName: b.EntryName,
	}
	return nb
}

// Validate checks structural invariants: functions are sorted and
// non-overlapping, branch targets land inside the text segment, and calls
// target function entries.
func (b *Binary) Validate() error {
	end := 0
	for i, f := range b.Funcs {
		if f.Entry < end {
			return fmt.Errorf("isa: function %q overlaps previous (entry %d < %d)", f.Name, f.Entry, end)
		}
		if f.Size <= 0 {
			return fmt.Errorf("isa: function %q has size %d", f.Name, f.Size)
		}
		end = f.Entry + f.Size
		if end > len(b.Text) {
			return fmt.Errorf("isa: function %q extends past text (end %d > %d)", f.Name, end, len(b.Text))
		}
		_ = i
	}
	entries := make(map[int]bool, len(b.Funcs))
	for _, f := range b.Funcs {
		entries[f.Entry] = true
	}
	for pc, in := range b.Text {
		if in.IsBranch() {
			if in.Target < 0 || in.Target >= len(b.Text) {
				return fmt.Errorf("isa: pc %d (%s) branches outside text", pc, in)
			}
			if in.Op == Call && !entries[in.Target] {
				return fmt.Errorf("isa: pc %d calls %d which is not a function entry", pc, in.Target)
			}
		}
	}
	return nil
}

// Asm assembles a single function from labeled instructions. Branch targets
// are symbolic labels resolved at Program link time; call targets are
// function names.
type Asm struct {
	name      string
	code      []Instr
	labels    map[string]int
	branchFix map[int]string // instruction index -> label
	callFix   map[int]string // instruction index -> function name
}

// NewAsm starts assembling a function with the given name.
func NewAsm(name string) *Asm {
	return &Asm{
		name:      name,
		labels:    make(map[string]int),
		branchFix: make(map[int]string),
		callFix:   make(map[int]string),
	}
}

// Label binds a label to the next emitted instruction. Labels also serve as
// markers: LabelOffset recovers their position after assembly.
func (a *Asm) Label(name string) *Asm {
	a.labels[name] = len(a.code)
	return a
}

// LabelOffset returns a label's instruction offset within the function, or
// -1 if undefined.
func (a *Asm) LabelOffset(name string) int {
	off, ok := a.labels[name]
	if !ok {
		return -1
	}
	return off
}

// Emit appends a raw instruction.
func (a *Asm) Emit(in Instr) *Asm {
	a.code = append(a.code, in)
	return a
}

// MovImm emits rd = imm.
func (a *Asm) MovImm(rd Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: MovImm, Rd: rd, Rs1: NoReg, Rs2: NoReg, Imm: imm})
}

// Mov emits rd = rs.
func (a *Asm) Mov(rd, rs Reg) *Asm {
	return a.Emit(Instr{Op: Mov, Rd: rd, Rs1: rs, Rs2: NoReg})
}

// Add emits rd = rs1 + rs2.
func (a *Asm) Add(rd, rs1, rs2 Reg) *Asm {
	return a.Emit(Instr{Op: Add, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AddImm emits rd = rs1 + imm.
func (a *Asm) AddImm(rd, rs1 Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: AddImm, Rd: rd, Rs1: rs1, Rs2: NoReg, Imm: imm})
}

// Sub emits rd = rs1 - rs2.
func (a *Asm) Sub(rd, rs1, rs2 Reg) *Asm {
	return a.Emit(Instr{Op: Sub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// SubImm emits rd = rs1 - imm.
func (a *Asm) SubImm(rd, rs1 Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: SubImm, Rd: rd, Rs1: rs1, Rs2: NoReg, Imm: imm})
}

// Mul emits rd = rs1 * rs2.
func (a *Asm) Mul(rd, rs1, rs2 Reg) *Asm {
	return a.Emit(Instr{Op: Mul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// MulImm emits rd = rs1 * imm.
func (a *Asm) MulImm(rd, rs1 Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: MulImm, Rd: rd, Rs1: rs1, Rs2: NoReg, Imm: imm})
}

// ShrImm emits rd = rs1 >> imm.
func (a *Asm) ShrImm(rd, rs1 Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: ShrImm, Rd: rd, Rs1: rs1, Rs2: NoReg, Imm: imm})
}

// AndImm emits rd = rs1 & imm.
func (a *Asm) AndImm(rd, rs1 Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: AndImm, Rd: rd, Rs1: rs1, Rs2: NoReg, Imm: imm})
}

// Min emits rd = min(rs1, rs2).
func (a *Asm) Min(rd, rs1, rs2 Reg) *Asm {
	return a.Emit(Instr{Op: Min, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Load emits rd = mem[base + imm].
func (a *Asm) Load(rd, base Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: Load, Rd: rd, Rs1: base, Rs2: NoReg, Imm: imm})
}

// LoadIdx emits rd = mem[base + index + imm].
func (a *Asm) LoadIdx(rd, base, index Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: Load, Rd: rd, Rs1: base, Rs2: index, Imm: imm})
}

// Store emits mem[base + imm] = rs.
func (a *Asm) Store(base Reg, imm int64, rs Reg) *Asm {
	return a.Emit(Instr{Op: Store, Rd: rs, Rs1: base, Rs2: NoReg, Imm: imm})
}

// StoreIdx emits mem[base + index + imm] = rs.
func (a *Asm) StoreIdx(base, index Reg, imm int64, rs Reg) *Asm {
	return a.Emit(Instr{Op: Store, Rd: rs, Rs1: base, Rs2: index, Imm: imm})
}

// Prefetch emits a software prefetch of mem[base + imm].
func (a *Asm) Prefetch(base Reg, imm int64) *Asm {
	return a.Emit(Instr{Op: Prefetch, Rd: NoReg, Rs1: base, Rs2: NoReg, Imm: imm})
}

// Br emits a conditional branch comparing two registers.
func (a *Asm) Br(c Cond, rs1, rs2 Reg, label string) *Asm {
	a.branchFix[len(a.code)] = label
	return a.Emit(Instr{Op: Br, Cond: c, Rd: NoReg, Rs1: rs1, Rs2: rs2})
}

// BrImm emits a conditional branch comparing a register to an immediate.
func (a *Asm) BrImm(c Cond, rs1 Reg, imm int64, label string) *Asm {
	a.branchFix[len(a.code)] = label
	return a.Emit(Instr{Op: BrImm, Cond: c, Rd: NoReg, Rs1: rs1, Rs2: NoReg, Imm: imm})
}

// Jmp emits an unconditional branch.
func (a *Asm) Jmp(label string) *Asm {
	a.branchFix[len(a.code)] = label
	return a.Emit(Instr{Op: Jmp, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
}

// Call emits a call to the named function, resolved at link time.
func (a *Asm) Call(fn string) *Asm {
	a.callFix[len(a.code)] = fn
	return a.Emit(Instr{Op: Call, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
}

// Ret emits a return.
func (a *Asm) Ret() *Asm { return a.Emit(Instr{Op: Ret, Rd: NoReg, Rs1: NoReg, Rs2: NoReg}) }

// Push emits a register spill.
func (a *Asm) Push(rs Reg) *Asm { return a.Emit(Instr{Op: Push, Rd: NoReg, Rs1: rs, Rs2: NoReg}) }

// Pop emits a register reload.
func (a *Asm) Pop(rd Reg) *Asm { return a.Emit(Instr{Op: Pop, Rd: rd, Rs1: NoReg, Rs2: NoReg}) }

// InitDone emits the end-of-initialisation marker.
func (a *Asm) InitDone() *Asm {
	return a.Emit(Instr{Op: InitDone, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
}

// Halt emits a thread-terminating instruction.
func (a *Asm) Halt() *Asm { return a.Emit(Instr{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg}) }

// Program links assembled functions into a Binary.
type Program struct {
	funcs []*Asm
	entry string
}

// NewProgram creates an empty program whose entry point is the named
// function.
func NewProgram(entry string) *Program { return &Program{entry: entry} }

// Add appends an assembled function. Functions are laid out in the order
// added.
func (p *Program) Add(a *Asm) *Program {
	p.funcs = append(p.funcs, a)
	return p
}

// Link resolves labels and call targets and produces the Binary.
func (p *Program) Link() (*Binary, error) {
	b := &Binary{EntryName: p.entry}
	entries := make(map[string]int, len(p.funcs))
	base := 0
	for _, a := range p.funcs {
		if _, dup := entries[a.name]; dup {
			return nil, fmt.Errorf("isa: duplicate function %q", a.name)
		}
		entries[a.name] = base
		b.Funcs = append(b.Funcs, Function{Name: a.name, Entry: base, Size: len(a.code)})
		base += len(a.code)
	}
	for _, a := range p.funcs {
		fbase := entries[a.name]
		for i, in := range a.code {
			if lbl, ok := a.branchFix[i]; ok {
				tgt, ok := a.labels[lbl]
				if !ok {
					return nil, fmt.Errorf("isa: function %q: undefined label %q", a.name, lbl)
				}
				in.Target = fbase + tgt
			}
			if fn, ok := a.callFix[i]; ok {
				tgt, ok := entries[fn]
				if !ok {
					return nil, fmt.Errorf("isa: function %q: call to undefined function %q", a.name, fn)
				}
				in.Target = tgt
			}
			b.Text = append(b.Text, in)
		}
	}
	if _, ok := entries[p.entry]; !ok {
		return nil, fmt.Errorf("isa: entry function %q not defined", p.entry)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
