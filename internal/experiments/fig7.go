package experiments

import (
	"fmt"
	"io"
	"sort"

	"rpg2/internal/fleet"
	"rpg2/internal/rpg2"
	"rpg2/internal/stats"
)

// Scheme names for the Figure 7 comparison (§4.1.1).
const (
	SchemeOriginal   = "original"
	SchemeRPG2       = "rpg2"
	SchemeActiveOnly = "active-only"
	SchemeAPTGET     = "apt-get"
	SchemeOffline    = "offline"
	SchemeManual     = "manual"
)

// PairResult holds one (benchmark, input, machine) cell of Figure 7: the
// speedup over the original binary for each scheme.
type PairResult struct {
	Bench, Input, Machine string
	// Speedup maps scheme name to mean speedup; RPG² entries aggregate
	// the configured number of trials.
	Speedup map[string]float64
	// RPG2Outcomes counts controller outcomes across trials.
	RPG2Outcomes map[rpg2.Outcome]int
	// RPG2Trials stores every trial's speedup, for variance.
	RPG2Trials []float64
	// FinalDistances are the tuned distances of activated trials.
	FinalDistances []int
	// Err records a failed cell (skipped in aggregates).
	Err error
}

// Fig7Result aggregates the main performance comparison.
type Fig7Result struct {
	Pairs []*PairResult
}

// Fig7 runs the full scheme comparison of Figure 7. Every measured cell —
// the original baseline, each RPG² trial, and the offline/APT-GET/manual
// statics — is one fleet session; the shared precomputations (sweeps,
// profiles, APT-GET distances) run through the fleet first, then the whole
// measured batch is submitted at once.
func (r *Runner) Fig7(benches []string) (*Fig7Result, error) {
	if len(benches) == 0 {
		benches = []string{"pr", "bfs", "sssp", "bc", "is", "cg", "randacc"}
	}
	jobs := r.cells(benches)
	res := &Fig7Result{Pairs: make([]*PairResult, len(jobs))}

	r.aptget.fill(jobs)
	r.sweeps.fill(jobs)
	r.cands.fill(jobs)
	thaw := r.warmStart(jobs)
	defer thaw()

	// The measured batch: a plan per cell indexes into one spec list so
	// submission order (and thus every seed) is independent of worker
	// count.
	type plan struct {
		orig          int
		rpg2          []int
		off, apt, man int
	}
	var specs []fleet.SessionSpec
	add := func(spec fleet.SessionSpec) int {
		spec.RunSeconds = r.opts.RunSeconds
		spec.TailSeconds = 1.0
		specs = append(specs, spec)
		return len(specs) - 1
	}
	plans := make([]plan, len(jobs))
	for i, j := range jobs {
		p := plan{off: -1, apt: -1, man: -1}
		p.orig = add(fleet.SessionSpec{
			Bench: j.bench, Input: j.input, Kind: fleet.BaselineJob,
			Machine: r.mptr(j.m),
		})
		for t := 0; t < r.opts.Trials; t++ {
			p.rpg2 = append(p.rpg2, add(fleet.SessionSpec{
				Bench: j.bench, Input: j.input, Machine: r.mptr(j.m),
				Seed: r.opts.Seed + int64(1000*i+t),
				Cold: !r.opts.WarmStart,
			}))
		}
		cand, candErr := r.cands.get(j)
		static := func(d int) int {
			if candErr != nil {
				return -1
			}
			return add(fleet.SessionSpec{
				Bench: j.bench, Input: j.input, Kind: fleet.StaticJob,
				Machine: r.mptr(j.m), Distance: d, Candidates: cand,
			})
		}
		// Offline: this input's own best distance.
		if sw, err := r.sweeps.get(j); err == nil {
			d, _ := sw.Best()
			p.off = static(d)
		}
		// APT-GET: one distance per benchmark/machine.
		if d, err := r.aptget.get(j); err == nil {
			p.apt = static(d)
		}
		// Manual (AJ benchmarks only).
		if md := manualDistance(j.bench); md > 0 {
			p.man = static(md)
		}
		plans[i] = p
	}
	sessions, err := r.runBatch(specs)
	if err != nil {
		return nil, err
	}

	for i, j := range jobs {
		pr := &PairResult{
			Bench: j.bench, Input: j.input, Machine: j.m.Name,
			Speedup:      make(map[string]float64),
			RPG2Outcomes: make(map[rpg2.Outcome]int),
		}
		res.Pairs[i] = pr
		p := plans[i]

		orig, err := resultFrom(sessions[p.orig])
		if err != nil || orig.Work == 0 {
			pr.Err = fmt.Errorf("original run: %v (work=%d)", err, orig.Work)
			continue
		}
		pr.Speedup[SchemeOriginal] = 1.0
		speedup := func(rr runResult) float64 { return float64(rr.Work) / float64(orig.Work) }

		// RPG² trials.
		var activeSum float64
		activeN := 0
		for t, si := range p.rpg2 {
			rr, err := resultFrom(sessions[si])
			if err != nil {
				pr.Err = fmt.Errorf("rpg2 trial %d: %w", t, err)
				break
			}
			s := speedup(rr)
			pr.RPG2Trials = append(pr.RPG2Trials, s)
			pr.RPG2Outcomes[rr.Report.Outcome]++
			if rr.Report.Outcome != rpg2.NotActivated {
				activeSum += s
				activeN++
			}
			if rr.Report.Outcome == rpg2.Tuned {
				pr.FinalDistances = append(pr.FinalDistances, rr.Report.FinalDistance)
			}
		}
		if pr.Err != nil {
			continue
		}
		pr.Speedup[SchemeRPG2] = stats.Mean(pr.RPG2Trials)
		if activeN > 0 {
			pr.Speedup[SchemeActiveOnly] = activeSum / float64(activeN)
		}
		record := func(scheme string, si int) {
			if si < 0 {
				return
			}
			if rr, err := resultFrom(sessions[si]); err == nil {
				pr.Speedup[scheme] = speedup(rr)
			}
		}
		record(SchemeOffline, p.off)
		record(SchemeAPTGET, p.apt)
		record(SchemeManual, p.man)
	}
	return res, nil
}

// manualDistance is the benchmark developers' hand-chosen prefetch distance
// (AJ benchmarks only, §4.1.1); 0 where none exists.
func manualDistance(bench string) int {
	switch bench {
	case "is", "randacc":
		return 64
	case "cg":
		return 32
	}
	return 0
}

// Group is one bar group of Figure 7: all / speedup / slowdown.
type Group struct {
	Name   string
	Inputs int
	// Mean and Std per scheme.
	Mean map[string]float64
	Std  map[string]float64
}

// BenchSummary is Figure 7's content for one benchmark on one machine.
type BenchSummary struct {
	Bench, Machine string
	Groups         []Group
}

// Summarize reduces the pair results into the paper's all/speedup/slowdown
// bar groups per benchmark and machine. The speedup group contains inputs
// where RPG² beat the original; the slowdown group contains inputs where
// RPG² detected a regression and rolled back (§4.2).
func (f *Fig7Result) Summarize() []BenchSummary {
	type key struct{ bench, mach string }
	byBM := make(map[key][]*PairResult)
	for _, p := range f.Pairs {
		if p == nil || p.Err != nil {
			continue
		}
		k := key{p.Bench, p.Machine}
		byBM[k] = append(byBM[k], p)
	}
	var keys []key
	for k := range byBM {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].mach != keys[j].mach {
			return keys[i].mach < keys[j].mach
		}
		return keys[i].bench < keys[j].bench
	})

	var out []BenchSummary
	for _, k := range keys {
		pairs := byBM[k]
		inSpeedup := func(p *PairResult) bool { return p.Speedup[SchemeRPG2] > 1.005 }
		inSlowdown := func(p *PairResult) bool {
			return p.RPG2Outcomes[rpg2.RolledBack]*2 > sumOutcomes(p.RPG2Outcomes)
		}
		groups := []struct {
			name   string
			filter func(*PairResult) bool
		}{
			{"all", func(*PairResult) bool { return true }},
			{"speedup", inSpeedup},
			{"slowdown", inSlowdown},
		}
		bs := BenchSummary{Bench: k.bench, Machine: k.mach}
		for _, g := range groups {
			grp := Group{Name: g.name, Mean: make(map[string]float64), Std: make(map[string]float64)}
			bySch := make(map[string][]float64)
			for _, p := range pairs {
				if !g.filter(p) {
					continue
				}
				grp.Inputs++
				for sch, v := range p.Speedup {
					bySch[sch] = append(bySch[sch], v)
				}
			}
			for sch, vs := range bySch {
				grp.Mean[sch] = stats.Mean(vs)
				grp.Std[sch] = stats.StdDev(vs)
			}
			bs.Groups = append(bs.Groups, grp)
		}
		out = append(out, bs)
	}
	return out
}

func sumOutcomes(m map[rpg2.Outcome]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Render prints the summary in the paper's bar-group layout.
func (f *Fig7Result) Render(w io.Writer) {
	schemes := []string{SchemeRPG2, SchemeActiveOnly, SchemeAPTGET, SchemeManual, SchemeOffline}
	for _, bs := range f.Summarize() {
		fmt.Fprintf(w, "\nFigure 7 — %s on %s (speedup over original; mean±std)\n", bs.Bench, bs.Machine)
		fmt.Fprintf(w, "%-12s", "group(n)")
		for _, s := range schemes {
			fmt.Fprintf(w, " %14s", s)
		}
		fmt.Fprintln(w)
		for _, g := range bs.Groups {
			fmt.Fprintf(w, "%-12s", fmt.Sprintf("%s(%d)", g.Name, g.Inputs))
			for _, s := range schemes {
				if g.Inputs == 0 {
					fmt.Fprintf(w, " %14s", "-")
					continue
				}
				if m, ok := g.Mean[s]; ok {
					fmt.Fprintf(w, " %8.2f±%-5.2f", m, g.Std[s])
				} else {
					fmt.Fprintf(w, " %14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	// Per-input detail for failed cells.
	for _, p := range f.Pairs {
		if p != nil && p.Err != nil {
			fmt.Fprintf(w, "SKIPPED %s/%s/%s: %v\n", p.Bench, p.Input, p.Machine, p.Err)
		}
	}
}
