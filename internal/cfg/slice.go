package cfg

import (
	"fmt"
	"sort"

	"rpg2/internal/isa"
)

// Category classifies a prefetchable load per Table 1 of the paper.
type Category uint8

// The three supported access categories.
const (
	// Direct is a[j]: a stride access over a loop induction variable.
	Direct Category = iota + 1
	// IndirectInner is a[f(b[j])]: an indirect access whose index stream
	// b is walked by the induction variable of the load's own loop.
	IndirectInner
	// IndirectOuter is a[f(b[i]+j)]: an indirect access in an inner loop
	// whose dependency chain reaches the outer loop's induction variable;
	// the prefetch kernel is placed in the outer loop (§3.2.1).
	IndirectOuter
)

func (c Category) String() string {
	switch c {
	case Direct:
		return "direct a[j]"
	case IndirectInner:
		return "indirect a[f(b[j])]"
	case IndirectOuter:
		return "indirect a[f(b[i]+j)]"
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Slice is the backward slice of a demand load: the dependency chain from
// loop induction variables and loop-invariant registers to the load's
// address (§3.2.2).
type Slice struct {
	// DemandPC is the miss-causing load the slice starts from.
	DemandPC int
	// Chain lists the PCs of the supporting instructions in program
	// order, excluding the demand load itself. For Direct accesses it is
	// empty.
	Chain []int
	// Category is the matched access pattern.
	Category Category
	// IV is the induction-variable leaf that drives the access.
	IV Induction
	// KernelLoop is the loop whose header receives the prefetch kernel:
	// the loop to which IV belongs.
	KernelLoop *Loop
	// InnerLoop is the innermost loop containing the demand load.
	InnerLoop *Loop
	// Invariants are the kernel-loop-invariant leaf registers.
	Invariants []isa.Reg
	// DroppedIVs are inner-loop induction variables that appear in the
	// demand address but are dropped from the prefetch address
	// (IndirectOuter only).
	DroppedIVs []isa.Reg
	// ViaStack is true when the chain traverses a fixed-offset stack slot
	// (a Store/Load pair through [sp+k]).
	ViaStack bool
}

// UnsupportedError reports a load RPG² cannot currently prefetch, with the
// reason: a slice ComputeSlice cannot build or classify, or one the BOLT
// pass cannot turn into a kernel; it mirrors the pass skipping unmatched
// slices.
type UnsupportedError struct {
	PC     int
	Reason string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("load at pc %d unsupported: %s", e.PC, e.Reason)
}

func unsupported(pc int, format string, args ...any) error {
	return &UnsupportedError{PC: pc, Reason: fmt.Sprintf(format, args...)}
}

// loopNest returns (inner, outer) for a PC: the innermost loop containing it
// and that loop's parent (or nil). Only the two innermost loops are
// considered, as in the paper.
func loopNest(g *Graph, loops []*Loop, pc int) (inner, outer *Loop) {
	for _, l := range loops {
		if !l.Contains(g, pc) {
			continue
		}
		if inner == nil || l.Depth > inner.Depth {
			inner = l
		}
	}
	if inner == nil {
		return nil, nil
	}
	if inner.Parent >= 0 {
		outer = loops[inner.Parent]
	}
	return inner, outer
}

// loopStart returns the smallest PC of the loop's blocks.
func loopStart(g *Graph, l *Loop) int {
	start := g.Fn.Entry + g.Fn.Size
	for id := range l.Blocks {
		if g.Blocks[id].Start < start {
			start = g.Blocks[id].Start
		}
	}
	return start
}

// ivOf returns the induction variable of the loop matching reg, if any.
func ivOf(g *Graph, l *Loop, r isa.Reg) (Induction, bool) {
	if l == nil {
		return Induction{}, false
	}
	for _, iv := range g.InductionVars(l) {
		if iv.Reg == r {
			return iv, true
		}
	}
	return Induction{}, false
}

// ComputeSlice builds the backward slice for the demand load at pc and
// classifies it into one of the supported categories. The walk proceeds
// backwards through straight-line code; dependencies through fixed-offset
// stack slots are followed, dependencies via other memory or with multiple
// reaching definitions are rejected (§3.2.2).
func ComputeSlice(g *Graph, loops []*Loop, pc int) (*Slice, error) {
	if pc < g.Fn.Entry || pc >= g.Fn.Entry+g.Fn.Size {
		return nil, unsupported(pc, "outside function %q", g.Fn.Name)
	}
	load := g.Text[pc]
	if load.Op != isa.Load {
		return nil, unsupported(pc, "not a load (%s)", load)
	}
	inner, outer := loopNest(g, loops, pc)
	if inner == nil {
		return nil, unsupported(pc, "not inside a loop")
	}

	s := &Slice{DemandPC: pc, InnerLoop: inner}

	// Registers whose definitions we still need, and leaves found.
	needed := make(map[isa.Reg]bool)
	// Stack slots whose stores we still need (offset from SP).
	neededSlots := make(map[int64]bool)
	var ivLeaves []Induction
	ivLoops := make(map[isa.Reg]*Loop)
	invariant := make(map[isa.Reg]bool)
	dropped := make(map[isa.Reg]bool)

	classify := func(r isa.Reg, usedBy int) error {
		if r == isa.SP {
			return nil // stack addressing handled via slots
		}
		if iv, ok := ivOf(g, inner, r); ok {
			ivLeaves = append(ivLeaves, iv)
			ivLoops[r] = inner
			return nil
		}
		if iv, ok := ivOf(g, outer, r); ok {
			// An outer IV reached from inner-loop code.
			ivLeaves = append(ivLeaves, iv)
			ivLoops[r] = outer
			return nil
		}
		// Invariant with respect to the outermost loop of the nest?
		scope := inner
		if outer != nil {
			scope = outer
		}
		if g.LoopInvariant(scope, r) {
			invariant[r] = true
			return nil
		}
		if outer != nil && g.LoopInvariant(inner, r) {
			// Defined in the outer loop body: keep slicing there.
			needed[r] = true
			return nil
		}
		// Variant but redefined within the inner loop: follow it only
		// if there is a unique straight-line def; multiple reaching
		// definitions are unsupported.
		defs := g.DefsIn(inner, r)
		if len(defs) > 1 {
			return unsupported(usedBy, "register %s has %d reaching definitions", r, len(defs))
		}
		needed[r] = true
		return nil
	}

	// Seed with the demand load's address registers.
	if err := classify(load.Rs1, pc); err != nil {
		return nil, err
	}
	if load.Rs2 != isa.NoReg {
		if err := classify(load.Rs2, pc); err != nil {
			return nil, err
		}
	}

	// Walk backwards from the load to the start of the loop nest.
	scope := inner
	if outer != nil {
		scope = outer
	}
	low := loopStart(g, scope)
	var chain []int
	hasLoad := false
	for q := pc - 1; q >= low && (len(needed) > 0 || len(neededSlots) > 0); q-- {
		in := g.Text[q]
		// Stack-slot stores satisfy slot demands.
		if in.Op == isa.Store && in.Rs1 == isa.SP && in.Rs2 == isa.NoReg && neededSlots[in.Imm] {
			delete(neededSlots, in.Imm)
			chain = append(chain, q)
			s.ViaStack = true
			if err := classify(in.Rd, q); err != nil {
				return nil, err
			}
			continue
		}
		d := in.Defs()
		if d == isa.NoReg || !needed[d] {
			// Intervening stack-pointer manipulation kills slot
			// tracking (§3.2.2).
			if d == isa.SP && len(neededSlots) > 0 {
				return nil, unsupported(pc, "stack pointer manipulated while tracking stack slot")
			}
			continue
		}
		delete(needed, d)
		chain = append(chain, q)
		switch in.Op {
		case isa.Load:
			if in.Rs1 == isa.SP && in.Rs2 == isa.NoReg {
				// Value flows through a stack slot: find its store.
				neededSlots[in.Imm] = true
				s.ViaStack = true
				continue
			}
			hasLoad = true
			if err := classify(in.Rs1, q); err != nil {
				return nil, err
			}
			if in.Rs2 != isa.NoReg {
				if err := classify(in.Rs2, q); err != nil {
					return nil, err
				}
			}
		case isa.Mov, isa.AddImm, isa.SubImm, isa.MulImm, isa.ShlImm, isa.ShrImm, isa.AndImm:
			if err := classify(in.Rs1, q); err != nil {
				return nil, err
			}
		case isa.Add, isa.Sub, isa.Mul, isa.Min:
			if err := classify(in.Rs1, q); err != nil {
				return nil, err
			}
			if err := classify(in.Rs2, q); err != nil {
				return nil, err
			}
		case isa.MovImm:
			// Constant: a closed leaf.
		default:
			return nil, unsupported(pc, "chain instruction %s not sliceable", in)
		}
	}
	if len(needed) > 0 || len(neededSlots) > 0 {
		return nil, unsupported(pc, "slice did not close over %d registers / %d stack slots", len(needed), len(neededSlots))
	}
	sort.Ints(chain)
	s.Chain = chain

	// Classify the access category from the IV leaves and chain shape.
	seenIV := make(map[isa.Reg]bool)
	uniqIVs := ivLeaves[:0]
	for _, iv := range ivLeaves {
		if !seenIV[iv.Reg] {
			seenIV[iv.Reg] = true
			uniqIVs = append(uniqIVs, iv)
		}
	}
	ivLeaves = uniqIVs
	if len(ivLeaves) == 0 {
		return nil, unsupported(pc, "no induction variable drives the access")
	}

	var outerIVs, innerIVs []Induction
	for _, iv := range ivLeaves {
		if outer != nil && ivLoops[iv.Reg] == outer {
			outerIVs = append(outerIVs, iv)
		} else {
			innerIVs = append(innerIVs, iv)
		}
	}

	switch {
	case !hasLoad:
		// Direct access: the IV must feed the load address itself;
		// affine chains (e.g. base+i*8) still count as direct.
		if len(innerIVs)+len(outerIVs) != 1 {
			return nil, unsupported(pc, "direct access with %d induction variables", len(ivLeaves))
		}
		s.Category = Direct
		if len(innerIVs) == 1 {
			s.IV = innerIVs[0]
			s.KernelLoop = inner
		} else {
			s.IV = outerIVs[0]
			s.KernelLoop = outer
		}
	case len(outerIVs) == 1:
		// a[f(b[i]+j)]: kernel goes in the outer loop; inner IV terms
		// are dropped from the prefetch address.
		s.Category = IndirectOuter
		s.IV = outerIVs[0]
		s.KernelLoop = outer
		for _, iv := range innerIVs {
			dropped[iv.Reg] = true
		}
	case len(outerIVs) == 0 && len(innerIVs) == 1:
		s.Category = IndirectInner
		s.IV = innerIVs[0]
		s.KernelLoop = inner
	default:
		return nil, unsupported(pc, "unmatched induction structure (%d inner, %d outer IVs)", len(innerIVs), len(outerIVs))
	}

	for r := range invariant {
		s.Invariants = append(s.Invariants, r)
	}
	sort.Slice(s.Invariants, func(i, j int) bool { return s.Invariants[i] < s.Invariants[j] })
	for r := range dropped {
		s.DroppedIVs = append(s.DroppedIVs, r)
	}
	sort.Slice(s.DroppedIVs, func(i, j int) bool { return s.DroppedIVs[i] < s.DroppedIVs[j] })
	return s, nil
}
