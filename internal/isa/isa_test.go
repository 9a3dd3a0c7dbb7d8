package isa

import (
	"strings"
	"testing"
)

func TestCondHolds(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b uint64
		want bool
	}{
		{Always, 0, 0, true},
		{EQ, 5, 5, true}, {EQ, 5, 6, false},
		{NE, 5, 6, true}, {NE, 5, 5, false},
		{LT, 4, 5, true}, {LT, 5, 5, false}, {LT, 6, 5, false},
		{GE, 5, 5, true}, {GE, 6, 5, true}, {GE, 4, 5, false},
		{LE, 5, 5, true}, {LE, 4, 5, true}, {LE, 6, 5, false},
		{GT, 6, 5, true}, {GT, 5, 5, false},
	}
	for _, tc := range cases {
		if got := tc.c.Holds(tc.a, tc.b); got != tc.want {
			t.Errorf("%v.Holds(%d,%d) = %v, want %v", tc.c, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDefsAndUses(t *testing.T) {
	var buf []Reg
	cases := []struct {
		in   Instr
		defs Reg
		uses []Reg
	}{
		{Instr{Op: MovImm, Rd: 3}, 3, nil},
		{Instr{Op: Mov, Rd: 1, Rs1: 2}, 1, []Reg{2}},
		{Instr{Op: Add, Rd: 1, Rs1: 2, Rs2: 3}, 1, []Reg{2, 3}},
		{Instr{Op: AddImm, Rd: 1, Rs1: 2}, 1, []Reg{2}},
		{Instr{Op: Load, Rd: 1, Rs1: 2, Rs2: 3}, 1, []Reg{2, 3}},
		{Instr{Op: Load, Rd: 1, Rs1: 2, Rs2: NoReg}, 1, []Reg{2}},
		{Instr{Op: Store, Rd: 4, Rs1: 2, Rs2: NoReg}, NoReg, []Reg{4, 2}},
		{Instr{Op: Prefetch, Rs1: 2, Rs2: 5}, NoReg, []Reg{2, 5}},
		{Instr{Op: Br, Rs1: 1, Rs2: 2}, NoReg, []Reg{1, 2}},
		{Instr{Op: BrImm, Rs1: 1}, NoReg, []Reg{1}},
		{Instr{Op: Push, Rs1: 7}, NoReg, []Reg{7, SP}},
		{Instr{Op: Pop, Rd: 7}, 7, []Reg{SP}},
		{Instr{Op: Halt}, NoReg, nil},
	}
	for _, tc := range cases {
		if got := tc.in.Defs(); got != tc.defs {
			t.Errorf("%v Defs = %v, want %v", tc.in, got, tc.defs)
		}
		buf = tc.in.Uses(buf[:0])
		if len(buf) != len(tc.uses) {
			t.Errorf("%v Uses = %v, want %v", tc.in, buf, tc.uses)
			continue
		}
		for i := range buf {
			if buf[i] != tc.uses[i] {
				t.Errorf("%v Uses[%d] = %v, want %v", tc.in, i, buf[i], tc.uses[i])
			}
		}
	}
}

func TestTerminators(t *testing.T) {
	if !(Instr{Op: Jmp}).IsTerminator() {
		t.Error("Jmp should be a terminator")
	}
	if (Instr{Op: Br, Cond: LT}).IsTerminator() {
		t.Error("conditional Br is not a terminator")
	}
	if !(Instr{Op: Ret}).IsTerminator() || !(Instr{Op: Halt}).IsTerminator() {
		t.Error("Ret and Halt are terminators")
	}
	if !(Instr{Op: Call}).IsBranch() {
		t.Error("Call transfers control")
	}
}

func buildTestBinary(t *testing.T) *Binary {
	t.Helper()
	main := NewAsm("main")
	main.MovImm(0, 3).
		Call("double").
		Halt()
	dbl := NewAsm("double")
	dbl.Add(0, 0, 0).Ret()
	bin, err := NewProgram("main").Add(main).Add(dbl).Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return bin
}

func TestProgramLink(t *testing.T) {
	bin := buildTestBinary(t)
	if len(bin.Text) != 5 {
		t.Fatalf("text length %d, want 5", len(bin.Text))
	}
	entry, err := bin.Entry()
	if err != nil || entry != 0 {
		t.Fatalf("Entry = %d, %v", entry, err)
	}
	f, ok := bin.Func("double")
	if !ok || f.Entry != 3 || f.Size != 2 {
		t.Fatalf("double = %+v", f)
	}
	if bin.Text[1].Op != Call || bin.Text[1].Target != 3 {
		t.Fatalf("call not linked: %v", bin.Text[1])
	}
	if g, ok := bin.FuncAt(4); !ok || g.Name != "double" {
		t.Fatalf("FuncAt(4) = %v %v", g, ok)
	}
	if _, ok := bin.FuncAt(99); ok {
		t.Fatal("FuncAt out of range should fail")
	}
}

func TestLinkErrors(t *testing.T) {
	// Undefined label.
	a := NewAsm("f")
	a.Jmp("nowhere")
	if _, err := NewProgram("f").Add(a).Link(); err == nil {
		t.Error("undefined label should fail")
	}
	// Undefined callee.
	b := NewAsm("f")
	b.Call("ghost").Ret()
	if _, err := NewProgram("f").Add(b).Link(); err == nil {
		t.Error("undefined callee should fail")
	}
	// Duplicate function.
	c1, c2 := NewAsm("f"), NewAsm("f")
	c1.Ret()
	c2.Ret()
	if _, err := NewProgram("f").Add(c1).Add(c2).Link(); err == nil {
		t.Error("duplicate function should fail")
	}
	// Missing entry.
	d := NewAsm("g")
	d.Ret()
	if _, err := NewProgram("main").Add(d).Link(); err == nil {
		t.Error("missing entry should fail")
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	bin := buildTestBinary(t)
	bad := bin.Clone()
	bad.Text[1].Target = 999
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range target should fail validation")
	}
	bad2 := bin.Clone()
	bad2.Text[1].Target = 4 // not a function entry
	if err := bad2.Validate(); err == nil {
		t.Error("call to non-entry should fail validation")
	}
}

func TestCloneIsDeep(t *testing.T) {
	bin := buildTestBinary(t)
	cp := bin.Clone()
	cp.Text[0].Imm = 42
	cp.Funcs[0].Name = "mutated"
	if bin.Text[0].Imm == 42 || bin.Funcs[0].Name == "mutated" {
		t.Fatal("Clone shares state with the original")
	}
}

func TestLabelOffset(t *testing.T) {
	a := NewAsm("f")
	a.MovImm(0, 1)
	a.Label("here")
	a.Halt()
	if off := a.LabelOffset("here"); off != 1 {
		t.Fatalf("LabelOffset = %d, want 1", off)
	}
	if off := a.LabelOffset("missing"); off != -1 {
		t.Fatalf("missing label = %d, want -1", off)
	}
}

func TestInstrStringCoversOpcodes(t *testing.T) {
	for op := Nop; op < opCount; op++ {
		in := Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 4, Target: 5}
		s := in.String()
		if s == "" || strings.Contains(s, "op(") {
			t.Errorf("opcode %d has no string form: %q", op, s)
		}
	}
}
