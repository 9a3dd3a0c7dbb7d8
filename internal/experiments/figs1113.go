package experiments

import (
	"fmt"
	"io"
	"math"

	"rpg2/internal/baselines"
	"rpg2/internal/fleet"
	"rpg2/internal/perf"
	"rpg2/internal/rpg2"
	"rpg2/internal/stats"
)

// Fig11Point relates one input's speedup to its LLC MPKI change.
type Fig11Point struct {
	Input       string
	Speedup     float64
	BaseMPKI    float64
	RPG2MPKI    float64
	MPKIReduced float64
	Activated   bool
}

// Fig11Result is the speedup-vs-MPKI scatter for pr.
type Fig11Result struct {
	Machine string
	Points  []Fig11Point
}

// Fig11 reproduces Figure 11: for every pr input, RPG²'s speedup against
// the reduction in LLC misses per kilo-instruction. Each input is one
// (baseline, optimize) pair of fleet sessions.
func (r *Runner) Fig11() (*Fig11Result, error) {
	m := r.opts.Machines[0]
	inputs := r.inputsFor("pr")
	out := &Fig11Result{Machine: m.Name, Points: make([]Fig11Point, len(inputs))}
	refs := make([]cellRef, len(inputs))
	for i, in := range inputs {
		refs[i] = cellRef{"pr", in, m}
	}
	thaw := r.warmStart(refs)
	defer thaw()
	var specs []fleet.SessionSpec
	for i, in := range inputs {
		specs = append(specs, fleet.SessionSpec{
			Bench: "pr", Input: in, Kind: fleet.BaselineJob,
			Machine:    r.mptr(m),
			RunSeconds: r.opts.RunSeconds, TailSeconds: 1.0,
		})
		specs = append(specs, fleet.SessionSpec{
			Bench: "pr", Input: in, Machine: r.mptr(m),
			Seed: r.opts.Seed + int64(i), Cold: !r.opts.WarmStart,
			RunSeconds: r.opts.RunSeconds, TailSeconds: 1.0,
		})
	}
	sessions, err := r.runBatch(specs)
	if err != nil {
		return nil, err
	}
	for i, in := range inputs {
		orig, err := resultFrom(sessions[2*i])
		if err != nil || orig.Work == 0 {
			out.Points[i] = Fig11Point{Input: in}
			continue
		}
		rr, err := resultFrom(sessions[2*i+1])
		if err != nil {
			out.Points[i] = Fig11Point{Input: in}
			continue
		}
		out.Points[i] = Fig11Point{
			Input:       in,
			Speedup:     float64(rr.Work) / float64(orig.Work),
			BaseMPKI:    orig.TailMPKI,
			RPG2MPKI:    rr.TailMPKI,
			MPKIReduced: orig.TailMPKI - rr.TailMPKI,
			Activated:   rr.Report.Outcome != rpg2.NotActivated,
		}
	}
	return out, nil
}

// Render prints the scatter points and the correlation the paper discusses
// (present, but not especially strong).
func (f *Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 11 — pr speedup vs LLC MPKI reduction (%s)\n", f.Machine)
	var xs, ys []float64
	for _, p := range f.Points {
		if p.Speedup == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s speedup=%.2f baseMPKI=%6.2f rpg2MPKI=%6.2f reduced=%6.2f activated=%v\n",
			p.Input, p.Speedup, p.BaseMPKI, p.RPG2MPKI, p.MPKIReduced, p.Activated)
		xs = append(xs, p.MPKIReduced)
		ys = append(ys, p.Speedup)
	}
	fmt.Fprintf(w, "  correlation(MPKI reduction, speedup) = %.2f\n", correlation(xs, ys))
}

func correlation(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	sxy, sxx, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}

// Fig12Result is the dynamic instruction-overhead histogram for pr.
type Fig12Result struct {
	Machine string
	// Overheads are per-input relative increases in dynamic instructions
	// per unit of work (e.g. 0.15 = +15%).
	Overheads []float64
	Edges     []float64
	Counts    []int
}

// Fig12 reproduces Figure 12: the increase in dynamic instruction count
// from running the prefetch kernel, per pr input.
func (r *Runner) Fig12() (*Fig12Result, error) {
	m := r.opts.Machines[0]
	inputs := r.inputsFor("pr")
	refs := make([]cellRef, len(inputs))
	for i, in := range inputs {
		refs[i] = cellRef{"pr", in, m}
	}
	thaw := r.warmStart(refs)
	defer thaw()
	var specs []fleet.SessionSpec
	for i, in := range inputs {
		specs = append(specs, fleet.SessionSpec{
			Bench: "pr", Input: in, Kind: fleet.BaselineJob,
			Machine:    r.mptr(m),
			RunSeconds: r.opts.RunSeconds, TailSeconds: 1.0,
		})
		specs = append(specs, fleet.SessionSpec{
			Bench: "pr", Input: in, Machine: r.mptr(m),
			Seed: r.opts.Seed + int64(3*i), Cold: !r.opts.WarmStart,
			RunSeconds: r.opts.RunSeconds, TailSeconds: 1.0,
		})
	}
	sessions, err := r.runBatch(specs)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{Machine: m.Name}
	for i := range inputs {
		orig, err := resultFrom(sessions[2*i])
		if err != nil || orig.TailInstrPer == 0 {
			continue
		}
		rr, err := resultFrom(sessions[2*i+1])
		if err != nil || rr.TailInstrPer == 0 {
			continue
		}
		if rr.Report.Outcome != rpg2.Tuned {
			continue // no kernel left in the code
		}
		out.Overheads = append(out.Overheads, rr.TailInstrPer/orig.TailInstrPer-1)
	}
	out.Edges = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75}
	out.Counts = stats.Histogram(out.Overheads, out.Edges)
	return out, nil
}

// Render prints the Figure 12 histogram.
func (f *Fig12Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 12 — pr dynamic instruction increase (%s), %d tuned inputs\n", f.Machine, len(f.Overheads))
	labels := []string{"0-10%", "10-20%", "20-30%", "30-40%", "40-50%", "50-75%", ">75%"}
	for i, c := range f.Counts {
		fmt.Fprintf(w, "  %-7s %d\n", labels[i], c)
	}
}

// Fig13Result is the asymmetric-distance grid for sssp's two loads.
type Fig13Result struct {
	Input, Machine string
	D0, D1         []int
	// Speedup[i][j] is the speedup at (D0[i], D1[j]).
	Speedup [][]float64
}

// Fig13 reproduces Figure 13: sweep sssp's two prefetch distances
// independently on one input (soc-alpha) and report the speedup surface. RPG² itself
// keeps distances symmetric; this shows what asymmetry is worth (§4.5).
// The grid mutates one process's patch points in place, so it stays a
// sequential procedure; the workload and candidates still come from the
// fleet's build cache and profile jobs.
func (r *Runner) Fig13() (*Fig13Result, error) {
	const input = "soc-alpha"
	m := r.opts.Machines[0]
	w, err := r.fleet.Builds().Build("sssp", input, 1<<30)
	if err != nil {
		return nil, err
	}
	cand, err := r.cands.get(cellRef{"sssp", input, m})
	if err != nil {
		return nil, err
	}
	if len(cand) < 2 {
		return nil, fmt.Errorf("fig13: sssp/%s exposed %d sites, need 2", input, len(cand))
	}
	pf, err := baselines.BuildPrefetched(w, cand, 8)
	if err != nil {
		return nil, err
	}
	if len(pf.RW.PatchPoints) < 2 {
		return nil, fmt.Errorf("fig13: rewrite has %d patch points, need 2", len(pf.RW.PatchPoints))
	}

	// Baseline.
	bp, bwatch, err := baselines.LaunchWarm(w, w.Bin, m, []int{w.WorkPC}, 1.0)
	if err != nil {
		return nil, err
	}
	base := perf.MeasureWatch(bp, bwatch, m.Seconds(1.0), nil, 0)
	if base.Work == 0 {
		return nil, fmt.Errorf("fig13: baseline retired no work")
	}

	pcs := []int{w.WorkPC}
	pp, pwatch, err := baselines.LaunchWarm(w, pf.Bin, m, append(pcs, pf.RW.BAT.Live(pf.F1Entry, pcs)...), 1.0)
	if err != nil {
		return nil, err
	}

	ds := []int{2, 4, 8, 16, 32, 64, 96}
	out := &Fig13Result{Input: input, Machine: m.Name, D0: ds, D1: ds}
	out.Speedup = make([][]float64, len(ds))
	for i, d0 := range ds {
		out.Speedup[i] = make([]float64, len(ds))
		for j, d1 := range ds {
			pf.SetSiteDistance(pp, 0, d0)
			pf.SetSiteDistance(pp, 1, d1)
			pp.Run(m.Seconds(0.15))
			win := perf.MeasureWatch(pp, pwatch, m.Seconds(0.3), nil, 0)
			out.Speedup[i][j] = win.Rate / base.Rate
		}
	}
	return out, nil
}

// Render prints the asymmetric speedup surface.
func (f *Fig13Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 13 — sssp/%s asymmetric distances (%s); rows=load0 d, cols=load1 d\n", f.Input, f.Machine)
	fmt.Fprintf(w, "%6s", "")
	for _, d1 := range f.D1 {
		fmt.Fprintf(w, " %6d", d1)
	}
	fmt.Fprintln(w)
	bestSym, bestAsym := 0.0, 0.0
	for i, d0 := range f.D0 {
		fmt.Fprintf(w, "%6d", d0)
		for j := range f.D1 {
			v := f.Speedup[i][j]
			fmt.Fprintf(w, " %6.2f", v)
			if i == j && v > bestSym {
				bestSym = v
			}
			if v > bestAsym {
				bestAsym = v
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  best symmetric=%.2fx best asymmetric=%.2fx (asymmetry worth %+.1f%%)\n",
		bestSym, bestAsym, 100*(bestAsym/bestSym-1))
}
