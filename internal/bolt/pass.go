package bolt

import (
	"fmt"
	"sort"

	"rpg2/internal/cfg"
	"rpg2/internal/isa"
)

// PatchPoint locates the few bytes of machine code that encode a prefetch
// distance in the rewritten function, so the tuning phase can edit the
// distance in a live process (§3.4). The encoded immediate is
// Base + Scale*distance.
type PatchPoint struct {
	// Offset is the instruction's offset from the start of the rewritten
	// function's code.
	Offset int
	// Base is the immediate value at distance zero.
	Base int64
	// Scale converts iterations of distance into immediate units (the
	// induction variable's step).
	Scale int64
}

// Apply returns the instruction rewritten to encode the given distance.
func (pp PatchPoint) Apply(in isa.Instr, distance int) isa.Instr {
	in.Imm = pp.Base + pp.Scale*int64(distance)
	return in
}

// Site summarises one prefetch kernel added by the pass.
type Site struct {
	// DemandPC is the f0 PC of the miss-causing load.
	DemandPC int
	// Category is the matched access pattern.
	Category cfg.Category
	// KernelOffset is the f1 offset where the kernel begins.
	KernelOffset int
	// KernelLen is the kernel's instruction count.
	KernelLen int
	// Spilled reports whether the kernel spills a scratch register.
	Spilled bool
	// ViaStack reports whether the slice traversed a stack slot.
	ViaStack bool
}

// Rewrite is the output of the InjectPrefetchPass for one function: the
// rewritten code (f1), the BAT, and the distance patch points.
type Rewrite struct {
	// FuncName is the original function (f0).
	FuncName string
	// NewName names the rewritten function (f1).
	NewName string
	// Code is f1's instructions. Branch targets inside f1 are encoded
	// relative to the start of Code until Rebase.
	Code []isa.Instr
	// BAT maps f0 PCs to f1 offsets and back.
	BAT *BAT
	// PatchPoints lists the distance-encoding instructions, one per site,
	// in the same order as Sites.
	PatchPoints []PatchPoint
	// Sites lists the injected prefetch kernels.
	Sites []Site

	internal map[int]bool // offsets whose Target is f1-relative
}

// Rebase returns a copy of the code with f1-internal branch targets turned
// absolute for loading at the given base PC.
func (rw *Rewrite) Rebase(base int) []isa.Instr {
	out := append([]isa.Instr(nil), rw.Code...)
	for off := range out {
		if rw.internal[off] {
			out[off].Target += base
		}
	}
	return out
}

// unsupported refuses the load at pc for the pass's own reasons, the way
// cfg.ComputeSlice refuses a slice.
func unsupported(pc int, format string, args ...any) error {
	return &cfg.UnsupportedError{PC: pc, Reason: fmt.Sprintf(format, args...)}
}

// pass carries the state of one InjectPrefetch invocation.
type pass struct {
	g     *cfg.Graph
	loops []*cfg.Loop
	opts  Options
}

// kernel is generated code pending insertion at a header PC.
type kernel struct {
	insertPC   int // f0 PC the kernel is inserted before
	code       []isa.Instr
	patchIdx   int   // index within code of the distance instruction
	patchBase  int64 // PatchPoint Base
	patchScale int64 // PatchPoint Scale
	skipFixups []int // indices within code of branches to the kernel end
	site       Site
}

// Options tunes the InjectPrefetchPass.
type Options struct {
	// PreferInnerPlacement puts the prefetch kernel for a[f(b[i]+j)]
	// accesses in the inner loop — prefetching the future inner
	// iteration a[f(b[i])+j+d] — instead of the paper's chosen strategy
	// of attacking the outer-loop stream a[f(b[i+d])] (§3.2.1). The
	// paper evaluated both and kept the outer placement; this option
	// exists for the ablation that shows why.
	PreferInnerPlacement bool
}

// InjectPrefetch runs the paper's InjectPrefetchPass: for each candidate
// miss-causing load PC in the named function it computes the backward slice,
// classifies the access, and generates a prefetch kernel in the appropriate
// loop header. It returns the rewritten function, its BAT, and the distance
// patch points. Candidates whose slices do not match a supported category
// are skipped; if none can be optimized, a *cfg.UnsupportedError is returned.
func InjectPrefetch(bin *isa.Binary, fnName string, candidatePCs []int, distance int) (*Rewrite, error) {
	return InjectPrefetchWithOptions(bin, fnName, candidatePCs, distance, Options{})
}

// InjectPrefetchWithOptions is InjectPrefetch with explicit pass options.
func InjectPrefetchWithOptions(bin *isa.Binary, fnName string, candidatePCs []int, distance int, opts Options) (*Rewrite, error) {
	f, ok := bin.Func(fnName)
	if !ok {
		return nil, fmt.Errorf("bolt: no function %q", fnName)
	}
	g, err := cfg.Build(bin.Text, f)
	if err != nil {
		return nil, err
	}
	p := &pass{g: g, loops: g.Loops(), opts: opts}

	seen := make(map[int]bool)
	var kernels []*kernel
	var firstErr error
	for _, pc := range candidatePCs {
		if seen[pc] {
			continue
		}
		seen[pc] = true
		k, err := p.buildKernel(pc, distance)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		kernels = append(kernels, k)
	}
	if len(kernels) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, unsupported(f.Entry, "no candidate loads")
	}
	// Deterministic order: by insertion PC, then by demand PC.
	sort.Slice(kernels, func(i, j int) bool {
		if kernels[i].insertPC != kernels[j].insertPC {
			return kernels[i].insertPC < kernels[j].insertPC
		}
		return kernels[i].site.DemandPC < kernels[j].site.DemandPC
	})

	rw := &Rewrite{
		FuncName: fnName,
		NewName:  fnName + ".bolt",
		BAT:      NewBAT(),
		internal: make(map[int]bool),
	}

	byInsert := make(map[int][]*kernel)
	for _, k := range kernels {
		byInsert[k.insertPC] = append(byInsert[k.insertPC], k)
	}

	// Emit f1: kernels ahead of their insertion PC, then the original
	// instructions, building the f0->f1 position map as we go.
	newPos := make(map[int]int, f.Size)
	var out []isa.Instr
	type brFix struct {
		off   int // f1 offset of the branch
		f0tgt int
	}
	var fixes []brFix
	for pc := f.Entry; pc < f.Entry+f.Size; pc++ {
		kernelStart := len(out)
		for _, k := range byInsert[pc] {
			base := len(out)
			k.site.KernelOffset = base
			k.site.KernelLen = len(k.code)
			out = append(out, k.code...)
			end := len(out)
			for _, i := range k.skipFixups {
				out[base+i].Target = end - 1 // the kernel's final instruction (the restoring pop)
				rw.internal[base+i] = true
			}
			if k.patchIdx >= 0 {
				rw.PatchPoints = append(rw.PatchPoints, PatchPoint{
					Offset: base + k.patchIdx,
					Base:   k.patchBase,
					Scale:  k.patchScale,
				})
			}
			rw.Sites = append(rw.Sites, k.site)
		}
		off := len(out)
		if len(byInsert[pc]) > 0 {
			// The loop-header PC translates to the kernel prefix, so
			// back edges (and OSR'd threads) run the kernel on every
			// iteration. The kernel is a NOP, so entering through it
			// is always safe. The copied instruction keeps a reverse
			// mapping so rollback from it still translates directly.
			newPos[pc] = kernelStart
			rw.BAT.add(pc, kernelStart)
			rw.BAT.ToF0[off] = pc
		} else {
			newPos[pc] = off
			rw.BAT.add(pc, off)
		}
		in := bin.Text[pc]
		if in.IsBranch() && in.Op != isa.Call && f.Contains(in.Target) {
			fixes = append(fixes, brFix{off: off, f0tgt: in.Target})
		}
		out = append(out, in)
	}
	for _, fx := range fixes {
		out[fx.off].Target = newPos[fx.f0tgt]
		rw.internal[fx.off] = true
	}
	rw.Code = out
	return rw, nil
}

// scratchReg picks the register the kernel commandeers for address
// computation. The register is always spilled around the kernel (the paper
// spills r5 in its running example, §3.2.3): a register unused inside the
// hot function may still be live in a caller, and BOLT has no
// interprocedural liveness, so spilling is the only NOP-preserving choice.
// The pick must avoid every register the kernel itself reads: the induction
// variable, invariant leaves, dropped inner IVs, and the guard's bound
// register.
func (p *pass) scratchReg(s *cfg.Slice, guard isa.Instr) isa.Reg {
	reserved := map[isa.Reg]bool{isa.SP: true, s.IV.Reg: true}
	for _, inv := range s.Invariants {
		reserved[inv] = true
	}
	for _, d := range s.DroppedIVs {
		reserved[d] = true
	}
	if guard.Op == isa.Br && guard.Rs2 != isa.NoReg {
		reserved[guard.Rs2] = true
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if !reserved[r] {
			return r
		}
	}
	return 0 // unreachable: 16 registers, far fewer reserved
}

// latchGuard derives the kernel's bounds check from the kernel loop's latch
// branch: the latch condition is copied and inverted so the kernel skips the
// prefetch when the future iteration would be out of bounds (§3.2.3).
func (p *pass) latchGuard(s *cfg.Slice) (isa.Instr, error) {
	latch := p.g.Blocks[s.KernelLoop.Latch]
	br := p.g.Text[latch.End-1]
	if br.Op != isa.Br && br.Op != isa.BrImm {
		return isa.Instr{}, unsupported(s.DemandPC, "kernel loop latch does not end in a conditional branch")
	}
	if br.Rs1 != s.IV.Reg {
		return isa.Instr{}, unsupported(s.DemandPC, "latch branch does not compare the induction variable %s", s.IV.Reg)
	}
	if s.IV.Step <= 0 {
		return isa.Instr{}, unsupported(s.DemandPC, "down-counting loops not supported")
	}
	var guard isa.Cond
	switch br.Cond {
	case isa.LT, isa.NE:
		guard = isa.GE
	case isa.LE:
		guard = isa.GT
	default:
		return isa.Instr{}, unsupported(s.DemandPC, "latch condition %s not supported", br.Cond)
	}
	if br.Op == isa.Br && !p.g.LoopInvariant(s.KernelLoop, br.Rs2) {
		return isa.Instr{}, unsupported(s.DemandPC, "loop bound register %s is not invariant", br.Rs2)
	}
	out := isa.Instr{Op: br.Op, Cond: guard, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: br.Rs2, Imm: br.Imm}
	if br.Op == isa.BrImm {
		out.Rs2 = isa.NoReg
	}
	return out, nil
}

// buildKernel generates the prefetch kernel for one candidate load. The
// kernel's correctness criterion is that it behaves as a NOP: the slice is
// re-executed into a scratch register, guarded by a bounds check, and the
// demand load is converted into a prefetch.
func (p *pass) buildKernel(pc, distance int) (*kernel, error) {
	s, err := cfg.ComputeSlice(p.g, p.loops, pc)
	if err != nil {
		return nil, err
	}
	headerStart := p.g.Blocks[s.KernelLoop.Header].Start
	k := &kernel{
		insertPC: headerStart,
		patchIdx: -1,
		site: Site{
			DemandPC: pc,
			Category: s.Category,
			ViaStack: s.ViaStack,
		},
	}
	load := p.g.Text[pc]

	if s.Category == cfg.Direct {
		// a[j] -> prefetch a[j + d*step]: a single instruction whose
		// displacement encodes the distance; no bounds check is needed
		// because prefetches never fault.
		pf := isa.Instr{Op: isa.Prefetch, Rd: isa.NoReg, Rs1: load.Rs1, Rs2: load.Rs2,
			Imm: load.Imm + s.IV.Step*int64(distance)}
		k.code = []isa.Instr{pf}
		k.patchIdx = 0
		k.patchBase = load.Imm
		k.patchScale = s.IV.Step
		return k, nil
	}

	if s.Category == cfg.IndirectOuter && p.opts.PreferInnerPlacement {
		// Ablation: prefetch a future iteration of the *inner* loop,
		// a[f(b[i])+j+d]. Within the inner loop the f(b[i]) term is
		// invariant, so this degenerates to a direct-style prefetch on
		// the inner induction variable — it never reaches the next
		// row's data, which is why the paper rejected it (§3.2.1).
		innerIVs := p.g.InductionVars(s.InnerLoop)
		if len(innerIVs) == 0 {
			return nil, unsupported(pc, "inner placement: inner loop has no induction variable")
		}
		iv := innerIVs[0]
		k.insertPC = p.g.Blocks[s.InnerLoop.Header].Start
		pf := isa.Instr{Op: isa.Prefetch, Rd: isa.NoReg, Rs1: load.Rs1, Rs2: load.Rs2,
			Imm: load.Imm + iv.Step*int64(distance)}
		k.code = []isa.Instr{pf}
		k.patchIdx = 0
		k.patchBase = load.Imm
		k.patchScale = iv.Step
		return k, nil
	}

	guard, err := p.latchGuard(s)
	if err != nil {
		return nil, err
	}
	scratch := p.scratchReg(s, guard)
	k.site.Spilled = true
	dropped := make(map[isa.Reg]bool, len(s.DroppedIVs))
	for _, r := range s.DroppedIVs {
		dropped[r] = true
	}

	var code []isa.Instr
	code = append(code, isa.Instr{Op: isa.Push, Rd: isa.NoReg, Rs1: scratch, Rs2: isa.NoReg})
	// rS = IV + d*step — the distance patch point.
	k.patchIdx = len(code)
	k.patchBase = 0
	k.patchScale = s.IV.Step
	code = append(code, isa.Instr{Op: isa.AddImm, Rd: scratch, Rs1: s.IV.Reg, Rs2: isa.NoReg,
		Imm: s.IV.Step * int64(distance)})
	// Bounds check (inverted latch condition) branching to the kernel end.
	guard.Rs1 = scratch
	k.skipFixups = append(k.skipFixups, len(code))
	code = append(code, guard)

	// Re-emit the slice chain with the scratch register threaded through:
	// `cur` names the f0 register whose future-iteration value currently
	// lives in the scratch register.
	cur := s.IV.Reg
	chainDefs := make(map[isa.Reg]bool)
	slotBound := make(map[int64]bool)
	for _, q := range s.Chain {
		in := p.g.Text[q]
		switch in.Op {
		case isa.Store: // stack-slot spill inside the chain
			if in.Rs1 != isa.SP || in.Rs2 != isa.NoReg {
				return nil, unsupported(pc, "non-stack store in slice")
			}
			if in.Rd != cur {
				return nil, unsupported(pc, "stack slot stores a value outside the chain")
			}
			// The kernel keeps the value in the scratch register
			// instead of touching the real stack slot (which would
			// not be a NOP).
			slotBound[in.Imm] = true
			continue
		case isa.Load:
			if in.Rs1 == isa.SP && in.Rs2 == isa.NoReg {
				if !slotBound[in.Imm] {
					return nil, unsupported(pc, "stack slot load without matching store")
				}
				// Value already lives in the scratch register.
				cur = in.Rd
				chainDefs[in.Rd] = true
				continue
			}
		}
		rewritten, err := p.rewriteChainInstr(in, pc, cur, scratch, chainDefs, dropped)
		if err != nil {
			return nil, err
		}
		code = append(code, rewritten)
		cur = in.Defs()
		chainDefs[cur] = true
	}

	// Convert the demand load into the prefetch.
	pf, err := p.rewriteDemandLoad(load, pc, cur, scratch, dropped)
	if err != nil {
		return nil, err
	}
	code = append(code, pf)

	// Kernel end: the bounds check lands on the restoring pop.
	code = append(code, isa.Instr{Op: isa.Pop, Rd: scratch, Rs1: isa.NoReg, Rs2: isa.NoReg})
	k.code = code
	return k, nil
}

// rewriteChainInstr re-targets one slice instruction at the scratch
// register. Exactly one operand must carry the chain value (linear chains
// only); remaining operands must be kernel-loop invariants.
func (p *pass) rewriteChainInstr(in isa.Instr, pc int, cur, scratch isa.Reg, chainDefs map[isa.Reg]bool, dropped map[isa.Reg]bool) (isa.Instr, error) {
	out := in
	replaced := 0
	swap := func(r isa.Reg) (isa.Reg, error) {
		switch {
		case r == cur:
			replaced++
			return scratch, nil
		case chainDefs[r]:
			return 0, unsupported(pc, "non-linear dependency chain through %s", r)
		case dropped[r]:
			return 0, unsupported(pc, "inner induction variable %s inside chain computation", r)
		default:
			return r, nil
		}
	}
	var err error
	if out.Rs1 != isa.NoReg {
		if out.Rs1, err = swap(out.Rs1); err != nil {
			return isa.Instr{}, err
		}
	}
	if out.Rs2 != isa.NoReg {
		if out.Rs2, err = swap(out.Rs2); err != nil {
			return isa.Instr{}, err
		}
	}
	if replaced != 1 {
		return isa.Instr{}, unsupported(pc, "chain instruction %s uses the chain value %d times", in, replaced)
	}
	if out.Defs() == isa.NoReg {
		return isa.Instr{}, unsupported(pc, "chain instruction %s defines nothing", in)
	}
	out.Rd = scratch
	return out, nil
}

// rewriteDemandLoad converts the miss-causing load into the kernel's
// prefetch instruction, dropping inner-loop induction terms for
// IndirectOuter accesses (the paper prefetches a[f(b[i+d])], §3.2.1).
func (p *pass) rewriteDemandLoad(load isa.Instr, pc int, cur, scratch isa.Reg, dropped map[isa.Reg]bool) (isa.Instr, error) {
	pf := isa.Instr{Op: isa.Prefetch, Rd: isa.NoReg, Rs1: load.Rs1, Rs2: load.Rs2, Imm: load.Imm}
	mapReg := func(r isa.Reg) isa.Reg {
		if r == cur {
			return scratch
		}
		return r
	}
	pf.Rs1 = mapReg(pf.Rs1)
	if pf.Rs2 != isa.NoReg {
		pf.Rs2 = mapReg(pf.Rs2)
	}
	if dropped[pf.Rs1] {
		if pf.Rs2 == isa.NoReg {
			return isa.Instr{}, unsupported(pc, "prefetch address reduces to a dropped induction variable")
		}
		pf.Rs1, pf.Rs2 = pf.Rs2, isa.NoReg
	} else if pf.Rs2 != isa.NoReg && dropped[pf.Rs2] {
		pf.Rs2 = isa.NoReg
	}
	if pf.Rs1 != scratch && (pf.Rs2 == isa.NoReg || pf.Rs2 != scratch) {
		return isa.Instr{}, unsupported(pc, "prefetch address does not use the computed chain value")
	}
	return pf, nil
}

// Apply produces a statically BOLTed binary: f1 appended, direct calls to f0
// retargeted at f1, and the entry point moved if f0 was the entry. This is
// the artifact the offline baseline runs (§4.1.1); RPG² itself instead
// injects Code into a live process and leaves f0 intact.
func (rw *Rewrite) Apply(bin *isa.Binary) (*isa.Binary, error) {
	f0, ok := bin.Func(rw.FuncName)
	if !ok {
		return nil, fmt.Errorf("bolt: binary lacks function %q", rw.FuncName)
	}
	nb := bin.Clone()
	base := len(nb.Text)
	nb.Text = append(nb.Text, rw.Rebase(base)...)
	nb.Funcs = append(nb.Funcs, isa.Function{Name: rw.NewName, Entry: base, Size: len(rw.Code)})
	for i := 0; i < base; i++ {
		if nb.Text[i].Op == isa.Call && nb.Text[i].Target == f0.Entry {
			nb.Text[i].Target = base
		}
	}
	if nb.EntryName == rw.FuncName {
		nb.EntryName = rw.NewName
	}
	if err := nb.Validate(); err != nil {
		return nil, fmt.Errorf("bolt: rewritten binary invalid: %w", err)
	}
	return nb, nil
}
