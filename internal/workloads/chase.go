package workloads

import (
	"math/rand"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// chaseNodes sizes the pointer-chase ring (words).
const chaseNodes = 262144

// Chase builds a pure pointer-chasing workload: node = next[node] around a
// randomized permutation ring. Its demand load's address depends on the
// load's own previous result, so its backward slice never closes over loop
// induction variables — it is the access pattern the paper explicitly
// leaves for future work (§3.2.1), and RPG² must recognise it as
// unsupported and leave the program untouched rather than inject anything.
//
// Chase is not part of the paper's benchmark suite; it exists to pin the
// unsupported-pattern path.
func Chase(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(404))
	perm := rng.Perm(chaseNodes)
	next := make([]uint64, chaseNodes)
	// A single cycle through all nodes: next[perm[i]] = perm[i+1].
	for i := 0; i < chaseNodes; i++ {
		next[perm[i]] = uint64(perm[(i+1)%chaseNodes])
	}

	// Registers: r0=next r2=steps r5=repeats; r9 carries the cursor.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0)
	k.MovImm(9, 0) // cursor = node 0
	k.Br(isa.GE, 8, 2, "done")
	k.Label("loop")
	k.Label(worksiteLabel)
	k.LoadIdx(9, 0, 9, 0) // cursor = next[cursor]  (DEMAND MISS, unsliceable)
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 2, "loop")
	k.Label("done")
	k.Ret()

	bin, workPC, err := link(k, 0, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "chase", InputName: "ring", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("next", next).Base
		regs[2] = uint64(chaseNodes / 4)
		regs[5] = uint64(repeats)
	}
	return w, nil
}
