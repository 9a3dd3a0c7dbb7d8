package workloads

import (
	"math/rand"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// Drifting workloads: benchmarks whose access pattern shifts mid-run, the
// targets the paper's "robust over time" claim needs and the fleet's
// phase-drift watchdog re-tunes. Each kernel keys its phase off the
// driver's superstep counter (r14): the first DriftSwitch supersteps run
// phase A, the rest phase B. The phase choice is made once per kernel
// call, in a prologue *outside* the loop nest, by selecting base/size
// registers — so the loop body (and the demand load's backward slice) is
// identical in both phases, and the injected prefetch kernel keeps
// working across the switch with only its distance wrong. That is
// precisely the drift a distance re-tune can fix, as opposed to a code
// change that would need a re-profile.
//
// Supersteps are deliberately small (fractions of a simulated second)
// compared to the stock benchmarks, so the superstep-counter phase key
// has usable granularity within a session's run budget.

const (
	// bcDriftSwitch (supersteps) is where bc-drift mutates its graph;
	// with ~1.3-simulated-second supersteps the switch lands around
	// t≈11s, leaving the seeded initial tune (~4s) room to finish inside
	// phase A.
	bcDriftSwitch = 8
	// isDriftSwitch is where is-drift's working set grows. Its supersteps
	// are shorter than bc-drift's, so the switch is later in superstep
	// terms to leave the initial tune room to finish inside phase A.
	isDriftSwitch = 24
	// chaseDriftSwitch is where chase-drift alternates its input ring;
	// its phase-A supersteps are ~1.6s, so it switches around t≈13s.
	chaseDriftSwitch = 8

	// bc-drift geometry. One data array of bcDriftEdges words carries two
	// precomputed row layouts: phase A reads it as long rows (one cache
	// line each, so the injected row-start prefetch covers the whole row
	// and a short distance suffices), phase B as single-word rows (the
	// mutated, fully fragmented graph): every row is its own random miss
	// with little work behind it, so the minimum covering distance jumps
	// an order of magnitude — the same regime as randacc, whose hand-tuned
	// distance is 64. Row lengths divide the line size, so rows never
	// straddle lines.
	bcDriftEdges = 196608 // 24576 lines = 6x CascadeLake L3
	bcDriftLenA  = 8      // phase-A row length (words)
	bcDriftLenB  = 1      // phase-B row length (words)
	bcDriftRowsA = bcDriftEdges / bcDriftLenA
	bcDriftRowsB = bcDriftEdges / bcDriftLenB

	// is-drift geometry: the counting-sort bucket array's hot region
	// grows from 2x LLC (partial residency) to 8x LLC (missing nearly
	// every iteration).
	isDriftIters   = 16384  // keys consumed per superstep
	isDriftSmall   = 65536  // phase-A key universe (words)
	isDriftBuckets = 262144 // phase-B key universe = bucket array size

	// chase-drift geometry: a DRAM-sized ring for phase A, an L1-sized
	// ring for phase B, laid out in one array.
	chaseDriftBig   = 262144
	chaseDriftSmall = 1024
	chaseDriftSteps = 8192 // pointer hops per superstep
)

// DriftNames lists the drifting benchmarks. They are intentionally not in
// AllNames: existing harness sweeps (and their byte-for-byte determinism
// tests) enumerate AllNames, and growing that set would change their
// output. Callers opt in by name.
func DriftNames() []string { return []string{"bc-drift", "is-drift", "chase-drift"} }

// BCDrift builds the graph-mutation drift workload: bc's jagged gather
// data[rowptr[v]+j] (category 3, outer-loop prefetch kernel), over a graph
// whose successor lists fragment mid-run — the same edge words re-read
// through a second row layout of 4x shorter rows, as if communities split.
// Phase A rows are exactly one cache line, so the tuned distance is small
// (the line's worth of work covers most of the memory latency); phase B
// rows carry a quarter of the work per row, the old distance undershoots,
// and every row stalls on its residual latency — a large, sustained rate
// drop that a pure distance re-tune (no re-profile) fully repairs.
func BCDrift(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(505))
	data := make([]uint64, bcDriftEdges)
	for i := range data {
		data[i] = uint64(rng.Intn(1 << 12))
	}
	// Both layouts place their rows in permuted order, as bc does: a
	// sequential layout would be hardware-prefetched and leave RPG²
	// nothing to do.
	ptr := make([]uint64, bcDriftRowsA+bcDriftRowsB)
	for i, v := range rng.Perm(bcDriftRowsA) {
		ptr[v] = uint64(i * bcDriftLenA)
	}
	for i, v := range rng.Perm(bcDriftRowsB) {
		ptr[bcDriftRowsA+v] = uint64(i * bcDriftLenB)
	}

	// Registers: r0=rowptr r1=data r5=repeats; r4 accumulates. The
	// prologue selects the phase's layout — pointer base r9, row count
	// r10, row length r11 — off the driver's superstep counter (r14),
	// outside the loop nest, so the loop body is phase-invariant.
	k := isa.NewAsm(KernelFunc)
	k.Mov(9, 0)                // ptrbase = rowptr (phase-A half)
	k.MovImm(10, bcDriftRowsA) // N = rows
	k.MovImm(11, bcDriftLenA)  // len = row length
	k.BrImm(isa.LT, 14, bcDriftSwitch, "go")
	k.AddImm(9, 9, bcDriftRowsA) // phase B: second half of rowptr
	k.MovImm(10, bcDriftRowsB)
	k.MovImm(11, bcDriftLenB)
	k.Label("go")
	k.MovImm(8, 0) // v = 0
	k.Label("outer")
	k.LoadIdx(13, 9, 8, 0) // start = ptrbase[v]
	k.Add(13, 1, 13)       // base2 = data + start
	k.MovImm(12, 0)        // j = 0
	k.Label("inner")
	k.Label(worksiteLabel)
	k.LoadIdx(7, 13, 12, 0) // x = data[start + j]   (DEMAND MISS, cat 3)
	k.Add(4, 4, 7)          // acc += x
	k.AddImm(12, 12, 1)
	k.Br(isa.LT, 12, 11, "inner")
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 10, "outer")
	k.Ret()

	bin, workPC, err := link(k, 1, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "bc-drift", InputName: "mutating-graph", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("rowptr", ptr).Base
		regs[1] = as.Map("data", data).Base
		regs[5] = uint64(repeats)
	}
	return w, nil
}

// ISDrift builds the working-set-growth drift workload: the is histogram
// whose key universe grows 4x mid-run (2x LLC to 8x LLC), via a second
// precomputed key stream selected in the prologue. More of the bucket
// accesses miss after the switch, but each miss was already covered by the
// tuned distance — per-iteration throughput *improves* (DRAM fills
// overlap under the prefetch; the lost L3 hits were never prefetchable).
// It is the benign-drift control: the watchdog must stay quiet on a phase
// shift that does not degrade the miss-site retirement rate.
func ISDrift(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(606))
	keys := make([]uint64, 2*isDriftIters)
	for i := 0; i < isDriftIters; i++ {
		keys[i] = uint64(rng.Intn(isDriftSmall))
		keys[isDriftIters+i] = uint64(rng.Intn(isDriftBuckets))
	}

	// Registers: r0=keys r1=cnt r5=repeats. The prologue selects the
	// phase's key stream (r9); the iteration count is the same in both.
	k := isa.NewAsm(KernelFunc)
	k.Mov(9, 0)
	k.BrImm(isa.LT, 14, isDriftSwitch, "go")
	k.AddImm(9, 9, isDriftIters)
	k.Label("go")
	k.MovImm(8, 0)
	k.Label("loop")
	k.LoadIdx(10, 9, 8, 0) // key = keys[i]   (sequential)
	k.Label(worksiteLabel)
	k.LoadIdx(11, 1, 10, 0) // c = cnt[key]    (DEMAND MISS)
	k.AddImm(11, 11, 1)
	k.StoreIdx(1, 10, 0, 11)
	k.AddImm(8, 8, 1)
	k.BrImm(isa.LT, 8, isDriftIters, "loop")
	k.Ret()

	bin, workPC, err := link(k, 0, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "is-drift", InputName: "growing-keys", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("keys", keys).Base
		regs[1] = as.Alloc("cnt", isDriftBuckets).Base
		regs[5] = uint64(repeats)
	}
	return w, nil
}

// ChaseDrift builds the input-phase-alternation drift workload: pointer
// chasing over a DRAM-sized ring that switches to an L1-resident ring
// mid-run. The chase load's slice is self-dependent — unsupported, never
// activated — so the session carries no tuned distance and the watchdog
// never arms. It pins the negative path: a drifting workload on an
// unactivated session must produce zero drift events.
func ChaseDrift(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(707))
	next := make([]uint64, chaseDriftBig+chaseDriftSmall)
	perm := rng.Perm(chaseDriftBig)
	for i := 0; i < chaseDriftBig; i++ {
		next[perm[i]] = uint64(perm[(i+1)%chaseDriftBig])
	}
	perm = rng.Perm(chaseDriftSmall)
	for i := 0; i < chaseDriftSmall; i++ {
		next[chaseDriftBig+perm[i]] = uint64(perm[(i+1)%chaseDriftSmall])
	}

	// Registers: r0=next r5=repeats; r9 carries the cursor, r10 the ring
	// base for the current phase (cursor values are ring-relative).
	k := isa.NewAsm(KernelFunc)
	k.Mov(10, 0)
	k.BrImm(isa.LT, 14, chaseDriftSwitch, "go")
	k.AddImm(10, 10, chaseDriftBig)
	k.Label("go")
	k.MovImm(8, 0)
	k.MovImm(9, 0) // cursor = node 0
	k.Label("loop")
	k.Label(worksiteLabel)
	k.LoadIdx(9, 10, 9, 0) // cursor = next[cursor]  (DEMAND MISS, unsliceable)
	k.AddImm(8, 8, 1)
	k.BrImm(isa.LT, 8, chaseDriftSteps, "loop")
	k.Ret()

	bin, workPC, err := link(k, 0, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "chase-drift", InputName: "alternating-rings", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("next", next).Base
		regs[5] = uint64(repeats)
	}
	return w, nil
}
