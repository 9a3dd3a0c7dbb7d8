// Package cfg recovers control-flow structure from a function's machine
// code: basic blocks, dominators, natural loops, loop-invariant registers,
// and loop induction variables, and on them the backward slice of a load
// (ComputeSlice). It provides the analyses that the BOLT InjectPrefetchPass
// builds on — the paper notes that BOLT already ships dominator and
// reaching-definition analyses, which its pass reuses (§3.2.2) — and that
// the interpreter's host look-ahead slices its hot loads with.
package cfg

import (
	"fmt"
	"sort"

	"rpg2/internal/isa"
)

// Block is a basic block: a maximal straight-line PC range.
type Block struct {
	// ID is the block's index in Graph.Blocks.
	ID int
	// Start and End delimit the block's PCs: [Start, End).
	Start, End int
	// Succs and Preds are CFG edges by block ID.
	Succs, Preds []int
}

// Graph is a function's control-flow graph.
type Graph struct {
	// Fn is the analysed function.
	Fn isa.Function
	// Blocks lists basic blocks in ascending PC order; Blocks[0] is the
	// entry block.
	Blocks []*Block
	// Text is the backing instruction stream (whole binary).
	Text []isa.Instr

	// idom[b] is the immediate dominator of block b (-1 for entry).
	idom []int
}

// Build recovers the CFG of fn within text. Branches leaving the function
// (calls aside) are treated as function exits.
func Build(text []isa.Instr, fn isa.Function) (*Graph, error) {
	if fn.Entry < 0 || fn.Size < 1 || fn.Entry+fn.Size > len(text) {
		return nil, fmt.Errorf("cfg: function %q out of text range", fn.Name)
	}
	leaders := map[int]bool{fn.Entry: true}
	for pc := fn.Entry; pc < fn.Entry+fn.Size; pc++ {
		in := text[pc]
		if in.IsBranch() && in.Op != isa.Call {
			if fn.Contains(in.Target) {
				leaders[in.Target] = true
			}
			if pc+1 < fn.Entry+fn.Size {
				leaders[pc+1] = true
			}
		}
		if in.Op == isa.Ret || in.Op == isa.Halt {
			if pc+1 < fn.Entry+fn.Size {
				leaders[pc+1] = true
			}
		}
	}
	starts := make([]int, 0, len(leaders))
	for pc := range leaders {
		starts = append(starts, pc)
	}
	sort.Ints(starts)

	g := &Graph{Fn: fn, Text: text}
	byStart := make(map[int]int, len(starts))
	for i, s := range starts {
		end := fn.Entry + fn.Size
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		g.Blocks = append(g.Blocks, &Block{ID: i, Start: s, End: end})
		byStart[s] = i
	}
	for _, b := range g.Blocks {
		last := g.Text[b.End-1]
		addEdge := func(targetPC int) {
			if id, ok := byStart[targetPC]; ok {
				b.Succs = append(b.Succs, id)
				g.Blocks[id].Preds = append(g.Blocks[id].Preds, b.ID)
			}
		}
		if last.IsBranch() && last.Op != isa.Call {
			addEdge(last.Target)
		}
		if !last.IsTerminator() {
			addEdge(b.End)
		}
	}
	g.computeDominators()
	return g, nil
}

// BlockAt returns the block containing the PC, or nil.
func (g *Graph) BlockAt(pc int) *Block {
	i := sort.Search(len(g.Blocks), func(i int) bool { return g.Blocks[i].Start > pc })
	if i == 0 {
		return nil
	}
	b := g.Blocks[i-1]
	if pc >= b.End {
		return nil
	}
	return b
}

// computeDominators runs the iterative dominance algorithm (Cooper, Harvey,
// Kennedy) over the block graph.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.idom = make([]int, n)
	for i := range g.idom {
		g.idom[i] = -1
	}
	if n == 0 {
		return
	}
	// Reverse postorder.
	order := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(0)
	rpo := make([]int, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		rpo = append(rpo, order[i])
	}
	pos := make([]int, n)
	for i, b := range rpo {
		pos[b] = i
	}
	g.idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = g.idom[a]
			}
			for pos[b] > pos[a] {
				b = g.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if g.idom[p] == -1 && p != 0 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
	g.idom[0] = -1
}

// Dominates reports whether block a dominates block b.
func (g *Graph) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = g.idom[b]
	}
	return false
}

// Loop is a natural loop.
type Loop struct {
	// Header is the loop header block ID.
	Header int
	// Latch is the block with the back edge to the header. If several
	// back edges target the header, the highest-PC latch is kept.
	Latch int
	// Blocks is the set of member block IDs.
	Blocks map[int]bool
	// Parent is the enclosing loop's index in the Loops result, or -1.
	Parent int
	// Depth is 1 for outermost loops.
	Depth int
}

// Contains reports whether the PC lies in one of the loop's blocks.
func (l *Loop) Contains(g *Graph, pc int) bool {
	b := g.BlockAt(pc)
	return b != nil && l.Blocks[b.ID]
}

// Loops finds the function's natural loops, outermost first. Loops sharing a
// header are merged.
func (g *Graph) Loops() []*Loop {
	byHeader := make(map[int]*Loop)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !g.Dominates(s, b.ID) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Latch: b.ID, Blocks: map[int]bool{s: true}, Parent: -1}
				byHeader[s] = l
			}
			if b.ID > l.Latch {
				l.Latch = b.ID
			}
			// Collect the loop body: nodes that reach the latch
			// without passing the header.
			stack := []int{b.ID}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[n] {
					continue
				}
				l.Blocks[n] = true
				for _, p := range g.Blocks[n].Preds {
					if !l.Blocks[p] {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(byHeader))
	for _, l := range byHeader {
		loops = append(loops, l)
	}
	// Sort outermost (largest) first, then by header PC for determinism.
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Blocks) != len(loops[j].Blocks) {
			return len(loops[i].Blocks) > len(loops[j].Blocks)
		}
		return g.Blocks[loops[i].Header].Start < g.Blocks[loops[j].Header].Start
	})
	// Nesting: parent is the smallest strict superset.
	for i, l := range loops {
		best := -1
		for j, o := range loops {
			if i == j || len(o.Blocks) <= len(l.Blocks) {
				continue
			}
			if !containsAll(o.Blocks, l.Blocks) {
				continue
			}
			if best == -1 || len(loops[best].Blocks) > len(o.Blocks) {
				best = j
			}
		}
		l.Parent = best
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != -1; p = loops[p].Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

func containsAll(super, sub map[int]bool) bool {
	for b := range sub {
		if !super[b] {
			return false
		}
	}
	return true
}

// pcsOf iterates the loop's instruction PCs in ascending order.
func (g *Graph) pcsOf(l *Loop, visit func(pc int, in isa.Instr)) {
	ids := make([]int, 0, len(l.Blocks))
	for id := range l.Blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := g.Blocks[id]
		for pc := b.Start; pc < b.End; pc++ {
			visit(pc, g.Text[pc])
		}
	}
}

// Induction describes a basic induction variable: a register updated exactly
// once per iteration by a constant step.
type Induction struct {
	Reg Reg
	// Step is the per-iteration increment (negative for down-counting).
	Step int64
	// DefPC is the PC of the update instruction.
	DefPC int
}

// Reg aliases isa.Reg for readability in this package's API.
type Reg = isa.Reg

// InductionVars finds the loop's basic induction variables: registers whose
// only definition inside the loop is r = r ± constant.
func (g *Graph) InductionVars(l *Loop) []Induction {
	defCount := make(map[Reg]int)
	defPC := make(map[Reg]int)
	g.pcsOf(l, func(pc int, in isa.Instr) {
		if d := in.Defs(); d != isa.NoReg {
			defCount[d]++
			defPC[d] = pc
		}
	})
	var out []Induction
	g.pcsOf(l, func(pc int, in isa.Instr) {
		d := in.Defs()
		if d == isa.NoReg || defCount[d] != 1 || defPC[d] != pc {
			return
		}
		switch in.Op {
		case isa.AddImm:
			if in.Rs1 == d {
				out = append(out, Induction{Reg: d, Step: in.Imm, DefPC: pc})
			}
		case isa.SubImm:
			if in.Rs1 == d {
				out = append(out, Induction{Reg: d, Step: -in.Imm, DefPC: pc})
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].DefPC < out[j].DefPC })
	return out
}

// LoopInvariant reports whether the register has no definition inside the
// loop (so its value is fixed across iterations).
func (g *Graph) LoopInvariant(l *Loop, r Reg) bool {
	invariant := true
	g.pcsOf(l, func(pc int, in isa.Instr) {
		if in.Defs() == r {
			invariant = false
		}
	})
	return invariant
}

// DefsIn returns the PCs in the loop that define the register.
func (g *Graph) DefsIn(l *Loop, r Reg) []int {
	var pcs []int
	g.pcsOf(l, func(pc int, in isa.Instr) {
		if in.Defs() == r {
			pcs = append(pcs, pc)
		}
	})
	return pcs
}
