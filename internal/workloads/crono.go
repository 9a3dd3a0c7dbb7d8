package workloads

import (
	"fmt"
	"math/rand"

	"rpg2/internal/graphs"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// cronoInput resolves a catalogue input name for a CRONO benchmark.
func cronoInput(bench, input string) (graphs.Input, error) {
	in, ok := graphs.FindInput(input)
	if !ok {
		return graphs.Input{}, fmt.Errorf("workloads: %s: unknown input %q", bench, input)
	}
	return in, nil
}

// PR builds the PageRank workload: a flat push-style edge loop. Per edge e
// it accumulates rank[edge[e]] into next[src[e]]. The indirect load
// rank[edge[e]] is the prefetchable miss site (category a[f(b[j])]).
func PR(input string, repeats int) (*Workload, error) {
	in, err := cronoInput("pr", input)
	if err != nil {
		return nil, err
	}
	g := in.Build(false)

	// Registers: r0=src r1=edge r2=rank r3=next r4=M r5=repeats.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0) // e = 0
	k.Br(isa.GE, 8, 4, "done")
	k.Label("loop")
	k.LoadIdx(9, 0, 8, 0)  // u = src[e]        (sequential)
	k.LoadIdx(10, 1, 8, 0) // t = edge[e]       (sequential)
	k.Label(worksiteLabel)
	k.LoadIdx(11, 2, 10, 0) // v = rank[t]       (DEMAND MISS)
	k.ShrImm(11, 11, 1)     // contribution = v/2
	k.LoadIdx(12, 3, 9, 0)  // cur = next[u]     (near-sequential)
	k.Add(12, 12, 11)
	k.StoreIdx(3, 9, 0, 12) // next[u] += contribution
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 4, "loop")
	k.Label("done")
	k.Ret()

	bin, workPC, err := link(k, 2, 2048)
	if err != nil {
		return nil, err
	}
	rank := make([]uint64, g.N)
	for i := range rank {
		rank[i] = 1 << 16
	}
	w := &Workload{
		Name: "pr", InputName: in.Name, Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("src", g.SrcOf).Base
		regs[1] = as.Map("edge", g.Edges).Base
		regs[2] = as.Map("rank", rank).Base
		regs[3] = as.Alloc("next", g.N).Base
		regs[4] = uint64(g.M())
		regs[5] = uint64(repeats)
	}
	w.Partition = func(regs *[isa.NumRegs]uint64, tid, n int) {
		start, end := shard(g.M(), tid, n)
		regs[0] += start
		regs[1] += start
		regs[4] = end - start
	}
	return w, nil
}

// BFS builds the breadth-first-search workload: level-synchronous frontier
// expansion from a fixed source. The visited check depth[edge[j]] is the
// prefetchable miss site, but rows are short, so the inner-loop kernel's
// bounds check skips most prefetches while its overhead remains — BFS is the
// benchmark where the paper finds prefetching hurts on almost every input.
func BFS(input string, repeats int) (*Workload, error) {
	in, err := cronoInput("bfs", input)
	if err != nil {
		return nil, err
	}
	g := in.Build(false)
	// Pick a source with a reasonable out-degree so traversal covers the
	// graph.
	src := 0
	for v := 0; v < g.N; v++ {
		if g.Offsets[v+1]-g.Offsets[v] >= 2 {
			src = v
			break
		}
	}

	// Registers: r0=off r1=edge r2=depth r3=curF r4=nextF r5=repeats r6=N.
	k := isa.NewAsm(KernelFunc)
	// Reset the visited array (standing in for per-run reinitialisation).
	k.MovImm(8, 0)
	k.MovImm(9, 0)
	k.Label("reset")
	k.StoreIdx(2, 8, 0, 9) // depth[i] = 0 (unvisited)
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 6, "reset")
	// Seed the frontier with the source.
	k.MovImm(8, int64(src))
	k.Store(3, 0, 8) // curF[0] = src
	k.MovImm(10, 1)
	k.StoreIdx(2, 8, 0, 10) // depth[src] = 1 (visited)
	k.MovImm(9, 1)          // curLen = 1
	k.Label("level_loop")
	k.MovImm(11, 0) // nextLen = 0
	k.MovImm(8, 0)  // i = 0
	k.Label("front_loop")
	k.LoadIdx(12, 3, 8, 0)  // v = curF[i]
	k.LoadIdx(13, 0, 12, 0) // j = off[v]
	k.LoadIdx(7, 0, 12, 1)  // rowEnd = off[v+1]
	k.Br(isa.GE, 13, 7, "row_done")
	k.Label("row_loop")
	k.LoadIdx(12, 1, 13, 0) // t = edge[j]     (sequential within row)
	k.Label(worksiteLabel)
	k.LoadIdx(10, 2, 12, 0) // dt = depth[t]   (DEMAND MISS)
	k.BrImm(isa.NE, 10, 0, "skip")
	k.MovImm(10, 1)
	k.StoreIdx(2, 12, 0, 10) // mark visited
	k.StoreIdx(4, 11, 0, 12) // nextF[nextLen] = t
	k.AddImm(11, 11, 1)
	k.Label("skip")
	k.AddImm(13, 13, 1)
	k.Br(isa.LT, 13, 7, "row_loop")
	k.Label("row_done")
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 9, "front_loop")
	// Swap frontiers: copy nextF into curF.
	k.MovImm(8, 0)
	k.Br(isa.GE, 8, 11, "copy_done")
	k.Label("copy_loop")
	k.LoadIdx(12, 4, 8, 0)
	k.StoreIdx(3, 8, 0, 12)
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 11, "copy_loop")
	k.Label("copy_done")
	k.Mov(9, 11)
	k.BrImm(isa.GT, 9, 0, "level_loop")
	k.Ret()

	bin, workPC, err := link(k, 1, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "bfs", InputName: in.Name, Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("off", g.Offsets).Base
		regs[1] = as.Map("edge", g.Edges).Base
		regs[2] = as.Alloc("depth", g.N).Base
		regs[3] = as.Alloc("curF", g.N).Base
		regs[4] = as.Alloc("nextF", g.N).Base
		regs[5] = uint64(repeats)
		regs[6] = uint64(g.N)
	}
	return w, nil
}

// SSSP builds the single-source-shortest-path workload: Bellman-Ford-style
// relaxation over a flat weighted edge list. It is the benchmark with two
// prefetchable loads (§4.5): dist[edge[e]] and cnt[edge[e]], both indirect
// through the same index stream, so their prefetch distances can in
// principle be tuned separately (Figure 13).
func SSSP(input string, repeats int) (*Workload, error) {
	in, err := cronoInput("sssp", input)
	if err != nil {
		return nil, err
	}
	g := in.Build(true)

	// Registers: r0=src r1=edge r2=w r3=dist r4=M r5=repeats r6=cnt.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0)
	k.Br(isa.GE, 8, 4, "done")
	k.Label("loop")
	k.LoadIdx(9, 0, 8, 0)  // u = src[e]
	k.LoadIdx(10, 3, 9, 0) // du = dist[u]     (near-sequential)
	k.LoadIdx(11, 2, 8, 0) // w = weight[e]
	k.Add(11, 10, 11)      // alt = du + w
	k.LoadIdx(12, 1, 8, 0) // t = edge[e]
	k.Label(worksiteLabel)
	k.LoadIdx(13, 3, 12, 0) // dt = dist[t]     (DEMAND MISS #1)
	k.Min(11, 11, 13)
	k.StoreIdx(3, 12, 0, 11) // dist[t] = min(alt, dt)
	k.LoadIdx(7, 6, 12, 0)   // c = cnt[t]      (DEMAND MISS #2)
	k.AddImm(7, 7, 1)
	k.StoreIdx(6, 12, 0, 7) // cnt[t] = c+1
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 4, "loop")
	k.Label("done")
	k.Ret()

	bin, workPC, err := link(k, 3, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "sssp", InputName: in.Name, Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		// The kernel writes dist, so each process must map its own copy:
		// workloads are shared across sessions by the build cache.
		dist := make([]uint64, g.N)
		for i := range dist {
			dist[i] = 1 << 30
		}
		dist[0] = 0
		regs[0] = as.Map("src", g.SrcOf).Base
		regs[1] = as.Map("edge", g.Edges).Base
		regs[2] = as.Map("weight", g.Weights).Base
		regs[3] = as.Map("dist", dist).Base
		regs[4] = uint64(g.M())
		regs[5] = uint64(repeats)
		regs[6] = as.Alloc("cnt", g.N).Base
	}
	w.Partition = func(regs *[isa.NumRegs]uint64, tid, n int) {
		start, end := shard(g.M(), tid, n)
		regs[0] += start
		regs[1] += start
		regs[2] += start
		regs[4] = end - start
	}
	return w, nil
}

// BC builds the betweenness-centrality-flavoured workload: a jagged gather
// over a per-edge accumulator array through a permuted row-pointer table
// (rows are laid out in shuffled order, as bc's successor lists are after
// its forward phase). The demand access data[rowptr[v] + j] matches the
// paper's third category a[f(b[i]+j)]: its dependency chain reaches the
// outer loop's induction variable, so the prefetch kernel lands in the
// outer loop (§3.2.1). bc runs only on the synthetic inputs (§4.2).
func BC(input string, repeats int) (*Workload, error) {
	in, err := cronoInput("bc", input)
	if err != nil {
		return nil, err
	}
	g := in.Build(false)

	// Permute row placement in the data array so row starts jump around
	// memory (sequential layout would be covered by the hardware stride
	// prefetcher and leave nothing to do).
	rng := rand.New(rand.NewSource(in.Seed * 7))
	order := rng.Perm(g.N)
	rowptr := make([]uint64, g.N)
	rowlen := make([]uint64, g.N)
	pos := uint64(0)
	for _, v := range order {
		deg := g.Offsets[v+1] - g.Offsets[v]
		rowptr[v] = pos
		rowlen[v] = deg
		pos += deg
	}

	// Registers: r0=rowptr r1=data r2=rowlen r5=repeats r6=N.
	k := isa.NewAsm(KernelFunc)
	k.MovImm(8, 0) // v = 0
	k.Label("outer")
	k.LoadIdx(9, 0, 8, 0)  // start = rowptr[v]
	k.Add(10, 1, 9)        // base2 = data + start
	k.LoadIdx(11, 2, 8, 0) // len = rowlen[v]
	k.MovImm(12, 0)        // j = 0
	k.Br(isa.GE, 12, 11, "next")
	k.Label("inner")
	k.Label(worksiteLabel)
	k.LoadIdx(13, 10, 12, 0) // x = data[start + j]   (DEMAND MISS, cat 3)
	k.Add(7, 7, 13)          // acc += x
	k.AddImm(12, 12, 1)
	k.Br(isa.LT, 12, 11, "inner")
	k.Label("next")
	k.AddImm(8, 8, 1)
	k.Br(isa.LT, 8, 6, "outer")
	k.Ret()

	bin, workPC, err := link(k, 1, 2048)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name: "bc", InputName: in.Name, Bin: bin,
		WorkPC: workPC,
	}
	w.Setup = func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		regs[0] = as.Map("rowptr", rowptr).Base
		regs[1] = as.Alloc("data", g.M()).Base
		regs[2] = as.Map("rowlen", rowlen).Base
		regs[5] = uint64(repeats)
		regs[6] = uint64(g.N)
	}
	return w, nil
}
