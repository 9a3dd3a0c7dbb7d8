package cfg

import (
	"testing"

	"rpg2/internal/isa"
)

// nestedLoops builds:
//
//	movi r8, 0          ; 0
//
// outer:
//
//	movi r9, 0          ; 1
//
// inner:
//
//	load r10, [r0+r9]   ; 2
//	add  r11, r11, r10  ; 3
//	addi r9, r9, 1      ; 4
//	bri.lt r9, 10 inner ; 5
//	addi r8, r8, 1      ; 6
//	br.lt r8, r1, outer ; 7
//	ret                 ; 8
func nestedLoops(t *testing.T) (*isa.Binary, isa.Function) {
	t.Helper()
	a := isa.NewAsm("f")
	a.MovImm(8, 0)
	a.Label("outer")
	a.MovImm(9, 0)
	a.Label("inner")
	a.LoadIdx(10, 0, 9, 0)
	a.Add(11, 11, 10)
	a.AddImm(9, 9, 1)
	a.BrImm(isa.LT, 9, 10, "inner")
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 1, "outer")
	a.Ret()
	bin, err := isa.NewProgram("f").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bin.Func("f")
	return bin, f
}

func TestBuildBlocks(t *testing.T) {
	bin, f := nestedLoops(t)
	g, err := Build(bin.Text, f)
	if err != nil {
		t.Fatal(err)
	}
	// Expected leaders: 0 (entry), 1 (outer), 2 (inner), 6 (after inner
	// branch), 8 (after outer branch).
	if len(g.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(g.Blocks))
	}
	if g.Blocks[0].Start != 0 || g.Blocks[0].End != 1 {
		t.Fatalf("entry block: %+v", g.Blocks[0])
	}
	b := g.BlockAt(4)
	if b == nil || b.Start != 2 || b.End != 6 {
		t.Fatalf("BlockAt(4) = %+v", b)
	}
	if g.BlockAt(999) != nil {
		t.Fatal("BlockAt out of range")
	}
}

func TestDominators(t *testing.T) {
	bin, f := nestedLoops(t)
	g, _ := Build(bin.Text, f)
	entry := g.BlockAt(0).ID
	inner := g.BlockAt(2).ID
	exit := g.BlockAt(8).ID
	if !g.Dominates(entry, inner) || !g.Dominates(entry, exit) {
		t.Fatal("entry must dominate everything")
	}
	if g.Dominates(inner, entry) {
		t.Fatal("inner must not dominate entry")
	}
	if !g.Dominates(inner, inner) {
		t.Fatal("dominance is reflexive")
	}
}

func TestLoopsAndNesting(t *testing.T) {
	bin, f := nestedLoops(t)
	g, _ := Build(bin.Text, f)
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	outer, inner := loops[0], loops[1]
	if len(outer.Blocks) < len(inner.Blocks) {
		t.Fatal("loops must be sorted outermost first")
	}
	if inner.Parent != 0 {
		t.Fatalf("inner.Parent = %d, want 0", inner.Parent)
	}
	if outer.Parent != -1 {
		t.Fatalf("outer.Parent = %d, want -1", outer.Parent)
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Fatalf("depths = %d, %d", outer.Depth, inner.Depth)
	}
	if !inner.Contains(g, 2) || inner.Contains(g, 6) {
		t.Fatal("inner membership wrong")
	}
	if !outer.Contains(g, 6) || outer.Contains(g, 8) {
		t.Fatal("outer membership wrong")
	}
}

func TestInductionVariables(t *testing.T) {
	bin, f := nestedLoops(t)
	g, _ := Build(bin.Text, f)
	loops := g.Loops()
	outer, inner := loops[0], loops[1]

	ivs := g.InductionVars(inner)
	if len(ivs) != 1 || ivs[0].Reg != 9 || ivs[0].Step != 1 {
		t.Fatalf("inner IVs = %+v", ivs)
	}
	ivs = g.InductionVars(outer)
	// r8 is the outer IV; r9 is redefined twice in the outer loop (movi
	// and addi) so it is not a basic IV there.
	found := false
	for _, iv := range ivs {
		if iv.Reg == 9 {
			t.Fatalf("r9 misclassified as outer IV")
		}
		if iv.Reg == 8 && iv.Step == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("outer IV r8 not found: %+v", ivs)
	}
}

func TestLoopInvariantAndDefs(t *testing.T) {
	bin, f := nestedLoops(t)
	g, _ := Build(bin.Text, f)
	inner := g.Loops()[1]
	if !g.LoopInvariant(inner, 0) {
		t.Fatal("r0 (base) must be inner-invariant")
	}
	if g.LoopInvariant(inner, 10) {
		t.Fatal("r10 is defined in the inner loop")
	}
	defs := g.DefsIn(inner, 10)
	if len(defs) != 1 || defs[0] != 2 {
		t.Fatalf("DefsIn(r10) = %v", defs)
	}
}

func TestStraightLineFunctionHasNoLoops(t *testing.T) {
	a := isa.NewAsm("s")
	a.MovImm(0, 1).AddImm(0, 0, 1).Ret()
	bin, err := isa.NewProgram("s").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bin.Func("s")
	g, err := Build(bin.Text, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Loops()) != 0 {
		t.Fatal("straight-line code has no loops")
	}
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
}

func TestBuildRejectsBadRange(t *testing.T) {
	bin, _ := nestedLoops(t)
	if _, err := Build(bin.Text, isa.Function{Name: "x", Entry: 0, Size: 999}); err == nil {
		t.Fatal("out-of-range function must be rejected")
	}
}

// TestSharedHeaderLoopsMerge exercises two back edges to one header.
func TestSharedHeaderLoopsMerge(t *testing.T) {
	a := isa.NewAsm("m")
	a.Label("head")
	a.AddImm(0, 0, 1)
	a.BrImm(isa.LT, 0, 10, "head") // latch 1
	a.AddImm(0, 0, 2)
	a.BrImm(isa.LT, 0, 20, "head") // latch 2
	a.Ret()
	bin, err := isa.NewProgram("m").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bin.Func("m")
	g, _ := Build(bin.Text, f)
	loops := g.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops sharing a header must merge: got %d", len(loops))
	}
	// The recorded latch is the highest-PC one.
	latchEnd := g.Blocks[loops[0].Latch].End
	if bin.Text[latchEnd-1].Imm != 20 {
		t.Fatalf("latch should be the second branch, got block ending at %d", latchEnd)
	}
}
