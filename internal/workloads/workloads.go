// Package workloads implements the paper's evaluation benchmarks as
// programs for the simulated machine: the CRONO graph kernels (pr, bfs,
// sssp, bc) and the Ainsworth-and-Jones "AJ" kernels (is, cg, randacc).
//
// Each workload follows the structure the paper requires of its targets:
// 1-2 small hot loops containing a small number of potentially prefetchable
// loads, in a hot function invoked repeatedly from a driver. As in the
// paper's modified benchmarks, the program signals the end of its
// initialisation phase (InitDone) so profiling can skip it, and the driver
// repeats the kernel so the run lasts long enough to amortise online
// optimisation (§4.1).
package workloads

import (
	"fmt"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
	"rpg2/internal/proc"
)

// KernelFunc is the name of every workload's hot function — the function
// RPG² profiles, rewrites, and replaces.
const KernelFunc = "kernel"

// Workload bundles a runnable program with its data setup.
type Workload struct {
	// Name identifies the benchmark ("pr", "bfs", ...).
	Name string
	// InputName identifies the input the workload was built for.
	InputName string
	// Bin is the program binary.
	Bin *isa.Binary
	// Setup maps the workload's data into a fresh address space and
	// initialises the main thread's registers (argument bases, sizes,
	// and the repeat count).
	Setup func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64)
	// WorkPC is the global PC of the benchmark's primary miss-causing
	// demand load in the original binary. Experiments count retirements
	// of this instruction (and of its image in any rewritten function)
	// as the unit of work, giving a performance metric comparable across
	// schemes whose instruction mixes differ.
	WorkPC int
	// Partition, when non-nil, rewrites a thread's argument registers so
	// it processes the tid-th of n shards of the iteration space. The
	// flat-loop benchmarks (pr, sssp, is, cg, randacc) are data-parallel
	// this way, as the paper's multithreaded CRONO runs are; bfs and bc
	// are not trivially partitionable and leave it nil.
	Partition func(regs *[isa.NumRegs]uint64, tid, n int)
}

// SpawnWorkers turns a freshly launched process into an n-thread run: it
// shards the main thread's iteration space and spawns n-1 additional
// threads over the remaining shards, each with its own driver loop. It must
// be called before the process first runs (it reads the pristine argument
// registers). All threads share one cache hierarchy and memory controller,
// so they contend for LLC capacity and DRAM bandwidth like real cores on a
// socket.
func (w *Workload) SpawnWorkers(p *proc.Process, threads int) error {
	if threads < 2 {
		return nil
	}
	if w.Partition == nil {
		return fmt.Errorf("workloads: %s is not data-parallel", w.Name)
	}
	base := p.MainThread().Thread.Regs
	for t := 1; t < threads; t++ {
		regs := base
		w.Partition(&regs, t, threads)
		if _, err := p.SpawnThread("main", regs); err != nil {
			return err
		}
	}
	w.Partition(&p.MainThread().Thread.Regs, 0, threads)
	return nil
}

// shard computes the [start, end) range of the tid-th of n shards over m
// items (the last shard absorbs the remainder).
func shard(m, tid, n int) (uint64, uint64) {
	chunk := m / n
	start := tid * chunk
	end := start + chunk
	if tid == n-1 {
		end = m
	}
	return uint64(start), uint64(end)
}

// CRONONames lists the CRONO benchmarks.
func CRONONames() []string { return []string{"pr", "bfs", "sssp", "bc"} }

// AJNames lists the Ainsworth-and-Jones benchmarks.
func AJNames() []string { return []string{"is", "cg", "randacc"} }

// AllNames lists every benchmark.
func AllNames() []string { return append(CRONONames(), AJNames()...) }

// repeatsReg is the register the driver loop compares its superstep counter
// against; Setup stores the repeat count there.
const repeatsReg = isa.Reg(5)

// counterReg is the driver's superstep counter.
const counterReg = isa.Reg(14)

// buildDriver assembles the standard main function: a short initialisation
// touch loop over the first words of the init segment, the InitDone signal,
// then `repeats` calls to the kernel.
//
// Register convention: r0..r6 are workload arguments (array bases and
// sizes) set by Setup and treated as read-only by the kernel; r5 is the
// repeat count; r8..r13 are kernel temporaries; r14 is the driver's
// superstep counter.
func buildDriver(initBase isa.Reg, initLen int64) *isa.Asm {
	a := isa.NewAsm("main")
	// Initialisation phase: touch the first initLen words of one array
	// (standing in for the benchmark's real input-loading phase, which
	// happens before the measured region).
	a.MovImm(counterReg, 0)
	a.Label("init_loop")
	a.LoadIdx(isa.Reg(8), initBase, counterReg, 0)
	a.AddImm(counterReg, counterReg, 1)
	a.BrImm(isa.LT, counterReg, initLen, "init_loop")
	a.InitDone()
	// Driver loop: repeats supersteps of the kernel.
	a.MovImm(counterReg, 0)
	a.Label("main_loop")
	a.Call(KernelFunc)
	a.AddImm(counterReg, counterReg, 1)
	a.Br(isa.LT, counterReg, repeatsReg, "main_loop")
	a.Halt()
	return a
}

// worksiteLabel marks each kernel's primary demand load.
const worksiteLabel = "worksite"

// link builds the two-function binary (main + kernel) and resolves the
// kernel's worksite marker to a global PC.
func link(kernel *isa.Asm, initBase isa.Reg, initLen int64) (*isa.Binary, int, error) {
	p := isa.NewProgram("main")
	p.Add(buildDriver(initBase, initLen))
	p.Add(kernel)
	bin, err := p.Link()
	if err != nil {
		return nil, 0, err
	}
	off := kernel.LabelOffset(worksiteLabel)
	if off < 0 {
		return nil, 0, fmt.Errorf("workloads: kernel lacks a %q marker", worksiteLabel)
	}
	f, _ := bin.Func(KernelFunc)
	return bin, f.Entry + off, nil
}

// Build constructs a workload by benchmark name. input names a graphs
// catalogue entry for CRONO benchmarks and must be empty for AJ benchmarks
// (which define their own inputs).
func Build(bench, input string, repeats int) (*Workload, error) {
	switch bench {
	case "pr":
		return PR(input, repeats)
	case "bfs":
		return BFS(input, repeats)
	case "sssp":
		return SSSP(input, repeats)
	case "bc":
		return BC(input, repeats)
	case "is":
		return IS(repeats)
	case "cg":
		return CG(repeats)
	case "randacc":
		return RandAcc(repeats)
	case "chase":
		return Chase(repeats)
	case "bc-drift":
		return BCDrift(repeats)
	case "is-drift":
		return ISDrift(repeats)
	case "chase-drift":
		return ChaseDrift(repeats)
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", bench)
}
