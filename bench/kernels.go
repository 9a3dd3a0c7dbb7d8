package main

import (
	"fmt"
	"strings"

	"rpg2/internal/baselines"
	"rpg2/internal/machine"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// kernelID names one (benchmark, input) pair.
type kernelID struct{ bench, input string }

// slug is the pair as a metric-name suffix: "/" is written "-".
func (k kernelID) slug() string {
	if k.input == "" {
		return k.bench
	}
	return k.bench + "-" + k.input
}

func (k kernelID) String() string { return strings.TrimSuffix(k.bench+"/"+k.input, "/") }

// The interpreter workloads' kernels, chosen by measured LLC misses per
// instruction on the simulated Cascade Lake (README.md has the table):
// missKernels spend their time on the miss path (0.075-0.17 misses/instr),
// hitKernels fit the scaled-down LLC (<= 0.002 misses/instr).
var (
	missKernels = []kernelID{{"is", ""}, {"randacc", ""}, {"cg", ""}, {"bfs", "soc-gamma"}, {"sssp", "gowalla-like"}}
	hitKernels  = []kernelID{{"pr", "as20000102-like"}, {"pr", "ring-small"}, {"sssp", "as20000102-like"}, {"pr", "synth-small"}}
)

func allKernels() []kernelID { return append(append([]kernelID(nil), missKernels...), hitKernels...) }

// The fleet workloads' pairs: six that tune and two that do not (one is
// never activated, one rolls back), so every controller ending is paid for.
var (
	tuningPairs    = []kernelID{{"is", ""}, {"cg", ""}, {"randacc", ""}, {"bfs", "soc-gamma"}, {"pr", "soc-alpha"}, {"sssp", "gowalla-like"}}
	nonTuningPairs = []kernelID{{"pr", "as20000102-like"}, {"pr", "ring-small"}}
)

func fleetPairs() []kernelID {
	return append(append([]kernelID(nil), tuningPairs...), nonTuningPairs...)
}

// unbounded is the driver-loop repeat count of a workload that must outlast
// any measurement.
const unbounded = 1 << 30

// kernelProc is a launched kernel past its initialisation phase.
type kernelProc struct {
	id kernelID
	w  *workloads.Workload
	p  *proc.Process
}

// launchKernel builds (through the given cache), launches, runs past init
// and warms the simulated caches for warmSeconds of simulated time.
func launchKernel(m machine.Machine, builds *workloads.BuildCache, id kernelID, warmSeconds float64) (*kernelProc, error) {
	w, err := builds.Build(id.bench, id.input, unbounded)
	if err != nil {
		return nil, fmt.Errorf("build %v: %w", id, err)
	}
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		return nil, fmt.Errorf("launch %v: %w", id, err)
	}
	if err := baselines.RunUntilInit(p, m); err != nil {
		return nil, fmt.Errorf("%v: %w", id, err)
	}
	p.Run(m.Seconds(warmSeconds))
	if p.State() != proc.Running {
		return nil, fmt.Errorf("%v is %v after warm-up", id, p.State())
	}
	return &kernelProc{id: id, w: w, p: p}, nil
}
