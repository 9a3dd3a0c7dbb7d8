// Package perf models the profiling interfaces RPG² consumes: PEBS-style
// sampling of last-level-cache misses (perf's MEM_LOAD_RETIRED.L3_MISS/ppp
// event) and perf-stat-style counter windows for IPC and MPKI.
package perf

import (
	"math/rand"
	"sort"

	"rpg2/internal/cpu"
	"rpg2/internal/mem"
	"rpg2/internal/proc"
)

// PEBSRecord is one sampled LLC miss: the PC of the load and the data
// address it missed on, exactly the fields RPG² reads from PEBS records.
type PEBSRecord struct {
	PC   int
	Addr mem.Addr
}

// Sampler collects PEBS records from a process's cores. Sampling is
// event-period based, as PEBS hardware is: roughly every Period-th demand
// LLC miss produces one record, up to MaxRecords. The gap between samples
// is randomized around Period (drawn uniformly from [Period/2, 3*Period/2])
// the way real PEBS randomizes its counter reload value: a fixed period
// aliases stroboscopically against programs whose miss-event sequence is
// itself periodic — e.g. a loop whose misses strictly alternate between two
// loads would be profiled as if only one of them ever missed.
type Sampler struct {
	// Period is the mean miss-event sampling period (1 = every miss).
	Period uint64
	// MaxRecords bounds the PEBS buffer.
	MaxRecords int

	records []PEBSRecord
	until   uint64 // events remaining until the next sample
	rng     *rand.Rand
	target  *proc.Process
}

// NewSampler creates a sampler with the given mean period and buffer bound.
func NewSampler(period uint64, maxRecords int) *Sampler {
	if period == 0 {
		period = 1
	}
	if maxRecords <= 0 {
		maxRecords = 1 << 16
	}
	s := &Sampler{
		Period:     period,
		MaxRecords: maxRecords,
		rng:        rand.New(rand.NewSource(int64(period)*0x9E3779B9 + 1)),
	}
	s.until = s.nextGap()
	return s
}

// nextGap draws the randomized distance to the next sample.
func (s *Sampler) nextGap() uint64 {
	if s.Period <= 1 {
		return 1
	}
	return s.Period/2 + uint64(s.rng.Int63n(int64(s.Period)+1))
}

// Attach starts sampling the process's cores. Only one sampler may be
// attached to a process at a time. The cores count the gap to the next
// sample themselves, as PEBS hardware counts its event, and call the
// sampler only on the miss it records.
func (s *Sampler) Attach(p *proc.Process) {
	s.target = p
	for _, t := range p.Threads() {
		t.Core.OnLLCMiss, t.Core.MissGap = s.observe, &s.until
	}
}

// Detach stops sampling.
func (s *Sampler) Detach() {
	if s.target == nil {
		return
	}
	for _, t := range s.target.Threads() {
		t.Core.OnLLCMiss, t.Core.MissGap = nil, nil
	}
	s.target = nil
}

// observe is called for the miss that ran the gap out: it records the miss
// and reloads the gap.
func (s *Sampler) observe(pc int, addr mem.Addr) {
	s.until = s.nextGap()
	if len(s.records) < s.MaxRecords {
		s.records = append(s.records, PEBSRecord{PC: pc, Addr: addr})
	}
}

// Records returns the sampled records.
func (s *Sampler) Records() []PEBSRecord { return s.records }

// MissSite aggregates samples by PC.
type MissSite struct {
	// PC is the load instruction's global PC.
	PC int
	// Count is the number of samples attributed to the PC.
	Count int
	// FuncName is the containing function, if resolvable.
	FuncName string
	// Share is Count divided by the total samples in the same function.
	Share float64
}

// AggregateByPC groups records by PC and computes each site's share of its
// function's misses, using the process symbol table for attribution. Sites
// are returned ordered by descending count.
func AggregateByPC(records []PEBSRecord, p *proc.Process) []MissSite {
	byPC := make(map[int]int)
	for _, r := range records {
		byPC[r.PC]++
	}
	funcTotals := make(map[string]int)
	type tmp struct {
		pc, count int
		fn        string
	}
	sites := make([]tmp, 0, len(byPC))
	for pc, n := range byPC {
		fn := ""
		if f, ok := p.FuncAt(pc); ok {
			fn = f.Name
		}
		funcTotals[fn] += n
		sites = append(sites, tmp{pc: pc, count: n, fn: fn})
	}
	out := make([]MissSite, 0, len(sites))
	for _, s := range sites {
		share := 0.0
		if t := funcTotals[s.fn]; t > 0 {
			share = float64(s.count) / float64(t)
		}
		out = append(out, MissSite{PC: s.pc, Count: s.count, FuncName: s.fn, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// candidateShare keeps only loads causing at least this fraction of their
// function's sampled misses (paper: 10%, §3.1).
const candidateShare = 0.10

// Candidates is RPG²'s candidate rule (§3.1), which the reference schemes
// share: the function with the most sampled misses, and its loads with at
// least candidateShare of that function's misses, in the sites' order.
// Sites outside any function are never picked; a tie goes to the name that
// sorts first. fn is "" when no site is in a function.
func Candidates(sites []MissSite) (fn string, pcs []int) {
	totals := make(map[string]int)
	for _, s := range sites {
		totals[s.FuncName] += s.Count
	}
	bestN := 0
	for name, n := range totals {
		if name != "" && (n > bestN || (n == bestN && name < fn)) {
			fn, bestN = name, n
		}
	}
	for _, s := range sites {
		if s.FuncName == fn && s.Share >= candidateShare {
			pcs = append(pcs, s.PC)
		}
	}
	return fn, pcs
}

// Window is a perf-stat style measurement over a bounded run of the target.
type Window struct {
	Cycles       uint64
	Instructions uint64
	LLCMisses    uint64
	IPC          float64
	MPKI         float64
	// Work counts retirements of the measured watch's PCs in the window
	// (see cpu.Watch); Rate is Work per cycle. Unlike IPC, Rate is
	// comparable across binaries whose instruction mix differs — a
	// prefetch kernel inflates IPC but not Rate.
	Work uint64
	Rate float64
}

// Measure runs the process for the given number of cycles and returns the
// counter deltas over that window. If rng is non-nil, the reported IPC is
// perturbed by a relative Gaussian error of the given magnitude, modelling
// the measurement noise that the paper identifies as the biggest impediment
// to its distance search (§4.3).
func Measure(p *proc.Process, cycles uint64, rng *rand.Rand, noise float64) Window {
	return MeasureWatch(p, nil, cycles, rng, noise)
}

// MeasureWatch is Measure with an explicit work counter: the window's Work
// and Rate are taken from the given watch (which must be attached to the
// process's cores). A nil watch reports zero work.
func MeasureWatch(p *proc.Process, watch *cpu.Watch, cycles uint64, rng *rand.Rand, noise float64) Window {
	before := p.Counters()
	var workBefore uint64
	if watch != nil {
		workBefore = watch.Count
	}
	missBefore := p.Threads()[0].Core.Hierarchy().Stats().LLCMisses
	p.Run(cycles)
	after := p.Counters()
	missAfter := p.Threads()[0].Core.Hierarchy().Stats().LLCMisses

	w := Window{
		Cycles:       after.Cycles - before.Cycles,
		Instructions: after.Instructions - before.Instructions,
		LLCMisses:    missAfter - missBefore,
	}
	if watch != nil {
		w.Work = watch.Count - workBefore
	}
	if w.Cycles > 0 {
		w.IPC = float64(w.Instructions) / float64(w.Cycles)
		w.Rate = float64(w.Work) / float64(w.Cycles)
	}
	if w.Instructions > 0 {
		w.MPKI = 1000 * float64(w.LLCMisses) / float64(w.Instructions)
	}
	if rng != nil && noise > 0 {
		w.IPC *= 1 + rng.NormFloat64()*noise
		if w.IPC < 0 {
			w.IPC = 0
		}
		w.Rate *= 1 + rng.NormFloat64()*noise
		if w.Rate < 0 {
			w.Rate = 0
		}
	}
	return w
}

// AttachWatch registers a watch on every core of the process and returns
// it. Several watches may be attached concurrently; each counts its own PC
// set independently.
func AttachWatch(p *proc.Process, pcs []int) *cpu.Watch {
	w := cpu.NewWatch(pcs)
	for _, t := range p.Threads() {
		t.Core.Watches = append(t.Core.Watches, w)
	}
	return w
}

// DetachWatch removes a watch from every core.
func DetachWatch(p *proc.Process, w *cpu.Watch) {
	for _, t := range p.Threads() {
		ws := t.Core.Watches[:0]
		for _, x := range t.Core.Watches {
			if x != w {
				ws = append(ws, x)
			}
		}
		t.Core.Watches = ws
	}
}

// Watches returns the watches attached to the process's first core (they
// are attached uniformly across cores).
func Watches(p *proc.Process) []*cpu.Watch { return p.Threads()[0].Core.Watches }
