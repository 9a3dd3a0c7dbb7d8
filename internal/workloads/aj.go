package workloads

import (
	"math/rand"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// The AJ benchmarks use fixed single inputs, as in Ainsworth and Jones'
// evaluation (§4.1). Sizes are chosen so the indirectly accessed arrays are
// several times larger than the simulated machines' last-level caches.
const (
	isKeys     = 393216 // number of keys sorted per superstep
	isBuckets  = 262144 // counting-sort bucket array (the miss target)
	cgRows     = 131072 // matrix rows; x has one word per row
	cgNNZPer   = 8      // nonzeros per row
	randTable  = 262144 // randacc table words (power of two)
	randIdxLen = 262144 // index-stream length per superstep
)

// IS builds the NAS-IS-flavoured integer-sort workload: a counting-sort
// histogram pass. The bucket increment cnt[keys[i]]++ is the prefetchable
// indirect access.
func IS(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(101))
	keys := make([]uint64, isKeys)
	for i := range keys {
		keys[i] = uint64(rng.Intn(isBuckets))
	}

	// Registers: r0=keys r1=cnt r2=n r5=repeats.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0)
	k.Br(isa.GE, 8, 2, "done")
	k.Label("loop")
	k.LoadIdx(9, 0, 8, 0) // key = keys[i]   (sequential)
	k.Label(worksiteLabel)
	k.LoadIdx(10, 1, 9, 0) // c = cnt[key]    (DEMAND MISS)
	k.AddImm(10, 10, 1)
	k.StoreIdx(1, 9, 0, 10)
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 2, "loop")
	k.Label("done")
	k.Ret()

	bin, workPC, err := link(k, 0, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "is", InputName: "aj-is", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("keys", keys).Base
		regs[1] = as.Alloc("cnt", isBuckets).Base
		regs[2] = uint64(isKeys)
		regs[5] = uint64(repeats)
	}
	w.Partition = func(regs *[isa.NumRegs]uint64, tid, n int) {
		start, end := shard(isKeys, tid, n)
		regs[0] += start
		regs[2] = end - start
	}
	return w, nil
}

// CG builds the NAS-CG-flavoured conjugate-gradient workload: the sparse
// matrix-vector product y[row[j]] += val[j] * x[col[j]] over a flat
// nonzeros loop. The gather x[col[j]] is the prefetchable indirect access.
func CG(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(202))
	nnz := cgRows * cgNNZPer
	col := make([]uint64, nnz)
	val := make([]uint64, nnz)
	rowof := make([]uint64, nnz)
	for i := range col {
		col[i] = uint64(rng.Intn(cgRows))
		val[i] = uint64(1 + rng.Intn(1<<12))
		rowof[i] = uint64(i / cgNNZPer)
	}
	x := make([]uint64, cgRows)
	for i := range x {
		x[i] = uint64(rng.Intn(1 << 12))
	}

	// Registers: r0=col r1=val r2=x r3=rowof r4=y r5=repeats r6=nnz.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0)
	k.Br(isa.GE, 8, 6, "done")
	k.Label("loop")
	k.LoadIdx(9, 0, 8, 0) // c = col[j]      (sequential)
	k.Label(worksiteLabel)
	k.LoadIdx(10, 2, 9, 0) // xv = x[c]       (DEMAND MISS)
	k.LoadIdx(11, 1, 8, 0) // a = val[j]      (sequential)
	k.Mul(10, 10, 11)
	k.ShrImm(10, 10, 8)
	k.LoadIdx(12, 3, 8, 0)  // r = rowof[j]    (sequential)
	k.LoadIdx(13, 4, 12, 0) // yv = y[r]      (near-sequential)
	k.Add(13, 13, 10)
	k.StoreIdx(4, 12, 0, 13)
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 6, "loop")
	k.Label("done")
	k.Ret()

	bin, workPC, err := link(k, 2, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "cg", InputName: "aj-cg", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("col", col).Base
		regs[1] = as.Map("val", val).Base
		regs[2] = as.Map("x", x).Base
		regs[3] = as.Map("rowof", rowof).Base
		regs[4] = as.Alloc("y", cgRows).Base
		regs[5] = uint64(repeats)
		regs[6] = uint64(nnz)
	}
	w.Partition = func(regs *[isa.NumRegs]uint64, tid, n int) {
		start, end := shard(nnz, tid, n)
		regs[0] += start
		regs[1] += start
		regs[3] += start
		regs[6] = end - start
	}
	return w, nil
}

// RandAcc builds the random-access (GUPS-flavoured) workload: read-modify-
// write of uniformly random table entries through a precomputed index
// stream, so the table access tbl[idx[i]] misses on essentially every
// iteration — the access pattern the paper describes as "randomly jumping
// around an array with indirect accesses" (§4.2). The paper's curious
// observation that distances that are multiples of 8 perform specially
// well on its hardware is a microarchitectural quirk this model does not
// reproduce (see EXPERIMENTS.md).
func RandAcc(repeats int) (*Workload, error) {
	rng := rand.New(rand.NewSource(303))
	idx := make([]uint64, randIdxLen)
	for i := range idx {
		idx[i] = uint64(rng.Intn(randTable))
	}

	// Registers: r0=idx r1=tbl r2=n r5=repeats.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0)
	k.Br(isa.GE, 8, 2, "done")
	k.Label("loop")
	k.LoadIdx(9, 0, 8, 0) // t = idx[i]     (sequential)
	k.Label(worksiteLabel)
	k.LoadIdx(10, 1, 9, 0) // v = tbl[t]     (DEMAND MISS)
	k.AddImm(10, 10, 7)
	k.StoreIdx(1, 9, 0, 10)
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 2, "loop")
	k.Label("done")
	k.Ret()

	bin, workPC, err := link(k, 0, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "randacc", InputName: "aj-randacc", Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("idx", idx).Base
		regs[1] = as.Alloc("tbl", randTable).Base
		regs[2] = uint64(randIdxLen)
		regs[5] = uint64(repeats)
	}
	w.Partition = func(regs *[isa.NumRegs]uint64, tid, n int) {
		start, end := shard(randIdxLen, tid, n)
		regs[0] += start
		regs[2] = end - start
	}
	return w, nil
}
