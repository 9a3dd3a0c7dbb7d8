package main

import (
	"fmt"
	"runtime"
	"time"

	"rpg2/internal/cache"
	"rpg2/internal/machine"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// interpSizes fixes the interpreter workloads' work. Work is fixed in
// simulated cycles, never in host time: a slice is the same computation on
// every host and every commit.
type interpSizes struct {
	warmSeconds  float64 // simulated warm-up per kernel, in set-up
	sliceSeconds float64 // simulated length of one timed slice
	samples      int     // pooled slices the latency percentiles need
	setups       int     // set-ups per untraced pass; setup_s is their median
}

func (r *run) interpSizes() interpSizes {
	if r.cfg.quick {
		return interpSizes{warmSeconds: 0.5, sliceSeconds: 0.25, samples: 8, setups: 1}
	}
	// Of 300 pooled slices the quietest 200 are kept, and 200 leave 10
	// beyond the 95th percentile.
	return interpSizes{warmSeconds: 10, sliceSeconds: 2.5, samples: 300, setups: 3}
}

// setupKernels is the interpreter workloads' set-up: build every kernel
// from an empty build cache, launch it, run it past init and warm it.
func setupKernels(m machine.Machine, ids []kernelID, warmSeconds float64) ([]*kernelProc, error) {
	builds := workloads.NewBuildCache()
	ks := make([]*kernelProc, 0, len(ids))
	for _, id := range ids {
		k, err := launchKernel(m, builds, id, warmSeconds)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// interpResult is one pass over the kernels, round-robin, one slice each
// per round.
type interpResult struct {
	rounds  int
	costRef [][]float64 // per kernel, per slice: host ns/instr in reference ops
	rawNS   [][]float64 // per kernel, per slice: host ns/instr
	latency [][]float64 // per kernel, per slice: slice wall in Mref
	refNS   []float64   // per slice: the mean of the reference runs around it
	wallNS  float64     // summed slice wall, reference runs excluded
	passNS  float64     // the whole pass, reference runs and span recording included
	instr   uint64
	cycles  uint64
	stats   cache.Stats // summed over kernels, over this pass
}

// interpPass runs at least minRounds rounds, and more until deadline.
// Every slice is bracketed by reference runs; a run between two slices
// closes one bracket and opens the next.
func (r *run) interpPass(m machine.Machine, ks []*kernelProc, sz interpSizes, minRounds int, deadline time.Time, tr *tracer) interpResult {
	res := interpResult{costRef: make([][]float64, len(ks)), rawNS: make([][]float64, len(ks)), latency: make([][]float64, len(ks))}
	cycles := m.Seconds(sz.sliceSeconds)
	before := make([]cache.Stats, len(ks))
	for i, k := range ks {
		before[i] = k.p.MainThread().Core.Hierarchy().Stats()
	}
	root := tr.open("interp.pass", 0, -1)
	passStart := time.Now()
	refBefore := r.ref.run(refOpsSlice)
	for res.rounds < minRounds || time.Now().Before(deadline) {
		for i, k := range ks {
			c0 := k.p.Counters()
			t0 := time.Now()
			k.p.Run(cycles)
			t1 := time.Now()
			c1 := k.p.Counters()
			tr.add("proc.Run "+k.id.String(), root, -1, t0, t1)
			refAfter := r.ref.run(refOpsSlice)
			tr.add("host.ref", root, -1, t1, time.Now())
			ref := (refBefore + refAfter) / 2
			refBefore = refAfter
			r.op(1)
			if st := k.p.State(); st != proc.Running {
				r.fail("%v is %v after a slice", k.id, st)
				continue
			}
			wall := float64(t1.Sub(t0).Nanoseconds())
			instr := c1.Instructions - c0.Instructions
			res.instr += instr
			res.cycles += c1.Cycles - c0.Cycles
			res.wallNS += wall
			res.refNS = append(res.refNS, ref)
			res.rawNS[i] = append(res.rawNS[i], wall/float64(instr))
			res.costRef[i] = append(res.costRef[i], wall/float64(instr)/ref)
			res.latency[i] = append(res.latency[i], wall/ref/1e6)
		}
		res.rounds++
	}
	res.passNS = float64(time.Since(passStart).Nanoseconds())
	tr.close(root)
	for i, k := range ks {
		after := k.p.MainThread().Core.Hierarchy().Stats()
		res.stats.DemandAccesses += after.DemandAccesses - before[i].DemandAccesses
		res.stats.L1Hits += after.L1Hits - before[i].L1Hits
		res.stats.L2Hits += after.L2Hits - before[i].L2Hits
		res.stats.L3Hits += after.L3Hits - before[i].L3Hits
		res.stats.MSHRHits += after.MSHRHits - before[i].MSHRHits
		res.stats.LLCMisses += after.LLCMisses - before[i].LLCMisses
		res.stats.DRAMFills += after.DRAMFills - before[i].DRAMFills
		res.stats.HWPrefetches += after.HWPrefetches - before[i].HWPrefetches
	}
	return res
}

// geomeanOfMedians reduces per-kernel slice series to the geometric mean of
// their medians: one kernel cannot dominate, and one noisy slice cannot move it.
func geomeanOfMedians(series [][]float64) float64 {
	meds := make([]float64, len(series))
	for i, s := range series {
		meds[i] = median(s)
	}
	return geomean(meds)
}

// quiet keeps, per kernel, the quietest slices by reference-normalised
// cost, and returns their costs per kernel and their latencies pooled.
func (res *interpResult) quiet() (costRef [][]float64, latency []float64) {
	for k := range res.costRef {
		idx := quietest(res.costRef[k])
		costRef = append(costRef, pick(res.costRef[k], idx))
		latency = append(latency, pick(res.latency[k], idx)...)
	}
	return costRef, latency
}

func runInterp(r *run) error {
	m := machine.CascadeLake()
	ids := missKernels
	if r.cfg.workload == "interp-hit" {
		ids = hitKernels
	}
	sz := r.interpSizes()
	minRounds := (sz.samples + len(ids) - 1) / len(ids)

	setups := sz.setups
	if r.cfg.trace {
		setups = 1
	}
	var ks []*kernelProc
	setupS, err := r.setUps(setups, func() { ks = nil }, func() (err error) {
		ks, err = setupKernels(m, ids, sz.warmSeconds)
		return err
	})
	if err != nil {
		return err
	}
	if err := r.checkKernels(m, ids); err != nil {
		return err
	}
	runtime.GC() // the oracle's finite runs are garbage now; see timeSetup

	if !r.cfg.trace {
		deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
		res := r.interpPass(m, ks, sz, minRounds, deadline, nil)
		costRef, latency := res.quiet()
		p95, err := r.pctl(latency, 0.95)
		if err != nil {
			return fmt.Errorf("latency_p95_ref: %w", err)
		}
		r.samples["rounds"] = res.rounds
		r.setN("setup_s", median(setupS), len(setupS))
		r.setN("cost_ref", geomeanOfMedians(costRef), len(costRef[0]))
		r.setN("latency_p50_ref", median(latency), len(latency))
		r.setN("latency_p95_ref", p95, len(latency))
		r.set("peak_rss_mb", peakRSSMB())
		return nil
	}

	// Traced pass: the ladder, then a quarter of the rounds untraced and
	// the same rounds again with spans recorded.
	if err := r.ladder(); err != nil {
		return err
	}
	rounds := max(minRounds/4, 3)
	u0 := readHostUsage()
	plain := r.interpPass(m, ks, sz, rounds, time.Time{}, nil)
	u1 := readHostUsage()
	traced := r.interpPass(m, ks, sz, rounds, time.Time{}, r.tr)

	r.hostMetrics(u0, u1, int(plain.instr), plain.refNS)
	r.setN("host.ns_per_instr", geomeanOfMedians(plain.rawNS), plain.rounds)
	st := plain.stats
	r.set("cache.demand_accesses", float64(st.DemandAccesses))
	r.set("cache.l1_hits", float64(st.L1Hits))
	r.set("cache.l2_hits", float64(st.L2Hits))
	r.set("cache.l3_hits", float64(st.L3Hits))
	r.set("cache.mshr_hits", float64(st.MSHRHits))
	r.set("cache.llc_misses", float64(st.LLCMisses))
	r.set("cache.dram_fills", float64(st.DRAMFills))
	r.set("cache.hw_prefetches", float64(st.HWPrefetches))
	r.set("cpu.instructions", float64(plain.instr))
	r.set("cpu.cycles", float64(plain.cycles))
	r.zero(sessionLayerMetrics...)
	r.zero(serviceLayerMetrics...)
	r.zero("host.sessions_per_s")

	// The layer model: every instruction pays the dispatch cost of an
	// ALU-only Step; every demand access pays one mem.Read and one
	// Hierarchy.Access priced by the level that served it; every hardware
	// prefetch pays one Prefetch; Run adds its loop overhead per instruction.
	memNS := r.metrics["mem.read_same_ns"]
	if r.cfg.workload == "interp-miss" {
		memNS = r.metrics["mem.read_alt_ns"]
	}
	instr := float64(plain.instr)
	model := instr*(r.metrics["cpu.step_alu_ns"]+r.metrics["proc.run_overhead_ns"]) +
		float64(st.DemandAccesses)*memNS +
		float64(st.L1Hits)*r.metrics["cache.access_l1hit_ns"] +
		float64(st.L2Hits+st.L3Hits)*r.metrics["cache.access_l3hit_ns"] +
		float64(st.LLCMisses)*r.metrics["cache.access_llcmiss_ns"] +
		float64(st.HWPrefetches)*r.metrics["cache.prefetch_ns"]
	r.set("trace.explained_share", model/plain.wallNS)
	r.set("trace.overhead_share", (traced.passNS-plain.passNS)/plain.passNS)
	r.set("trace.spans", float64(r.tr.count()))
	return nil
}
