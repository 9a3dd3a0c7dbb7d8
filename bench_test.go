// Benchmarks regenerating every table and figure of the RPG² paper's
// evaluation section (§4), plus ablations of the design choices DESIGN.md
// calls out. Each benchmark prints the reproduced rows/series through the
// experiment renderers (visible with `go test -bench=. -v` or in the
// benchmark log) and reports headline numbers as benchmark metrics.
//
// Scale: benchmarks run at a reduced-but-representative scale (a subset of
// inputs, shorter runs) so the full suite finishes in minutes; the
// rpg2-experiments command regenerates everything at full scale.
package rpg2_test

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"rpg2"
	"rpg2/internal/baselines"
	"rpg2/internal/bolt"
	"rpg2/internal/experiments"
	"rpg2/internal/graphs"
	"rpg2/internal/machine"
	"rpg2/internal/perf"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/stats"
	"rpg2/internal/workloads"
)

// benchRunner is shared across benchmarks so profiles and sweeps computed
// for one figure are reused by the next.
var (
	benchOnce   sync.Once
	benchShared *experiments.Runner
)

func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.CRONOInputs = graphs.Catalogue()[:8]
	o.SynthInputs = graphs.SyntheticCatalogue()[:3]
	o.RunSeconds = 30
	o.Trials = 2
	ds := make([]int, 0, 50)
	for d := 1; d <= 100; d += 2 {
		ds = append(ds, d)
	}
	o.Sweep.Distances = ds
	o.Seed = 42
	return o
}

func runner() *experiments.Runner {
	benchOnce.Do(func() { benchShared = experiments.NewRunner(benchOptions()) })
	return benchShared
}

// emit renders a result to stderr so bench logs carry the reproduced rows.
func emit(b *testing.B, render func(io.Writer)) {
	b.Helper()
	fmt.Fprintf(os.Stderr, "\n===== %s =====\n", b.Name())
	render(os.Stderr)
}

func BenchmarkFig1DistanceSweepSSSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
			spread := optimaSpread(res)
			b.ReportMetric(spread, "optima-spread")
		}
	}
}

// optimaSpread measures how far apart per-input best distances are — the
// phenomenon Figure 1 exists to show.
func optimaSpread(cs *experiments.CurveSet) float64 {
	lo, hi := 1<<30, 0
	for _, c := range cs.Curves {
		best, bestV := 0, 0.0
		for i, v := range c.Speedup {
			if v > bestV {
				best, bestV = c.Distances[i], v
			}
		}
		if best < lo {
			lo = best
		}
		if best > hi {
			hi = best
		}
	}
	return float64(hi - lo)
}

func BenchmarkFig2AsymptoticCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkFig3MicroarchSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkFig7MainPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig7(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
			// Headline metrics: the best RPG² speedup anywhere, and the
			// worst RPG² outcome (robustness: should stay near 1.0).
			best, worst := 0.0, 10.0
			for _, p := range res.Pairs {
				if p.Err != nil {
					continue
				}
				if s := p.Speedup[experiments.SchemeRPG2]; s > best {
					best = s
				}
				if s := p.Speedup[experiments.SchemeRPG2]; s > 0 && s < worst {
					worst = s
				}
			}
			b.ReportMetric(best, "best-speedup")
			b.ReportMetric(worst, "worst-speedup")
		}
	}
}

func BenchmarkFig8SearchAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig8(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
			within := 0
			for j, c := range res.Counts {
				if j < 2 {
					within += c
				}
			}
			if n := len(res.Deltas); n > 0 {
				b.ReportMetric(100*float64(within)/float64(n), "pct-within-10")
			}
		}
	}
}

func BenchmarkFig9ProfilingSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkFig10IPCTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig10("soc-alpha", "bitcoinalpha-like")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkFig11MPKIScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkFig12InstructionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
			b.ReportMetric(100*stats.Mean(res.Overheads), "mean-overhead-pct")
		}
	}
}

func BenchmarkFig13AsymmetricDistances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Fig13("soc-alpha")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkTable1AccessCategories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

func BenchmarkTable2Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
			var edits, edit float64
			for _, row := range res.Rows {
				edits += float64(row.Costs.PDEdits)
				edit += 1000 * row.Costs.PDEditSeconds
			}
			b.ReportMetric(edit/float64(len(res.Rows)), "pd-edit-ms")
		}
	}
}

func BenchmarkTable3SensitivityTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Table3(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
		}
	}
}

// BenchmarkTableTransplant runs the cross-machine transplant study on a
// benchmark subset: the translated tier must tune with fewer measurement
// windows than a cold search on every comparable cell.
func BenchmarkTableTransplant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().TableTransplant([]string{"pr", "is"})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			emit(b, res.Render)
			coldW, transW, n := 0.0, 0.0, 0
			for _, row := range res.Rows {
				if !row.Comparable {
					continue
				}
				coldW += row.Cold.Windows
				transW += row.Translated.Windows
				n++
			}
			if n > 0 {
				b.ReportMetric(coldW/float64(n), "cold-windows")
				b.ReportMetric(transW/float64(n), "translated-windows")
			}
		}
	}
}

// ---- Ablations of design choices (DESIGN.md §4) ------------------------

// BenchmarkAblationMetricMPKI contrasts tuning on IPC-style work rate vs
// LLC-MPKI, reproducing §4.4's finding that MPKI carries almost no tuning
// signal.
func BenchmarkAblationMetricMPKI(b *testing.B) {
	m := machine.CascadeLake()
	for i := 0; i < b.N; i++ {
		rateRep := mustOptimize(b, m, "pr", "soc-alpha", rpg2.Config{Seed: 1})
		mpkiRep := mustOptimize(b, m, "pr", "soc-alpha", rpg2.Config{Seed: 1, UseMPKIMetric: true})
		if i == b.N-1 {
			fmt.Fprintf(os.Stderr, "\n===== %s =====\nrate metric: d=%d; MPKI metric: d=%d\n",
				b.Name(), rateRep.FinalDistance, mpkiRep.FinalDistance)
			b.ReportMetric(float64(rateRep.FinalDistance), "rate-distance")
			b.ReportMetric(float64(mpkiRep.FinalDistance), "mpki-distance")
		}
	}
}

// BenchmarkAblationSearchStrategy compares the paper's three-stage search
// against a linear scan: quality of the found distance vs number of edits.
func BenchmarkAblationSearchStrategy(b *testing.B) {
	m := machine.CascadeLake()
	for i := 0; i < b.N; i++ {
		staged := mustOptimize(b, m, "cg", "", rpg2.Config{Seed: 2})
		linear := mustOptimize(b, m, "cg", "", rpg2.Config{Seed: 2, LinearSearch: true})
		if i == b.N-1 {
			fmt.Fprintf(os.Stderr, "\n===== %s =====\n3-stage: d=%d in %d edits; linear: d=%d in %d edits\n",
				b.Name(), staged.FinalDistance, staged.Costs.PDEdits,
				linear.FinalDistance, linear.Costs.PDEdits)
			b.ReportMetric(float64(staged.Costs.PDEdits), "staged-edits")
			b.ReportMetric(float64(linear.Costs.PDEdits), "linear-edits")
		}
	}
}

// BenchmarkAblationRollback quantifies the robustness contribution: the
// throughput an LLC-resident input keeps with rollback enabled vs disabled.
func BenchmarkAblationRollback(b *testing.B) {
	m := machine.CascadeLake()
	const input = "as20000102-like"
	for i := 0; i < b.N; i++ {
		base := throughputWith(b, m, input, nil)
		with := throughputWith(b, m, input, &rpg2.Config{Seed: 3, MinSamples: 10})
		without := throughputWith(b, m, input, &rpg2.Config{Seed: 3, MinSamples: 10, DisableRollback: true})
		if i == b.N-1 {
			fmt.Fprintf(os.Stderr, "\n===== %s =====\nrollback keeps %.1f%% of baseline; disabled keeps %.1f%%\n",
				b.Name(), 100*with/base, 100*without/base)
			b.ReportMetric(100*with/base, "with-rollback-pct")
			b.ReportMetric(100*without/base, "without-rollback-pct")
		}
	}
}

// BenchmarkAblationKernelPlacement compares outer- vs inner-loop kernel
// placement for the a[f(b[i]+j)] category on bc (§3.2.1).
func BenchmarkAblationKernelPlacement(b *testing.B) {
	m := machine.CascadeLake()
	for i := 0; i < b.N; i++ {
		outer := placementSpeedup(b, m, false)
		inner := placementSpeedup(b, m, true)
		if i == b.N-1 {
			fmt.Fprintf(os.Stderr, "\n===== %s =====\nouter placement %.2fx, inner placement %.2fx\n",
				b.Name(), outer, inner)
			b.ReportMetric(outer, "outer-speedup")
			b.ReportMetric(inner, "inner-speedup")
		}
	}
}

// ---- helpers ------------------------------------------------------------

func mustOptimize(b *testing.B, m machine.Machine, bench, input string, cfg rpg2.Config) *rpgcore.Report {
	b.Helper()
	w, err := workloads.Build(bench, input, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := rpgcore.New(m, cfg).Optimize(p)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func throughputWith(b *testing.B, m machine.Machine, input string, cfg *rpg2.Config) float64 {
	b.Helper()
	const seconds = 30.0
	w, err := workloads.Build("pr", input, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		b.Fatal(err)
	}
	watch := perf.AttachWatch(p, []int{w.WorkPC})
	if cfg != nil {
		if _, err := rpgcore.New(m, *cfg).Optimize(p); err != nil {
			b.Fatal(err)
		}
	}
	if budget := m.Seconds(seconds); p.Clock() < budget {
		p.Run(budget - p.Clock())
	}
	return float64(watch.Count)
}

func placementSpeedup(b *testing.B, m machine.Machine, inner bool) float64 {
	b.Helper()
	w, err := workloads.Build("bc", "synth-u1", 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := baselines.ProfileCandidates(w, m, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	// Baseline.
	bp, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		b.Fatal(err)
	}
	if err := baselines.RunUntilInit(bp, m); err != nil {
		b.Fatal(err)
	}
	bw := perf.AttachWatch(bp, []int{w.WorkPC})
	bp.Run(m.Seconds(1.5))
	base := perf.MeasureWatch(bp, bw, m.Seconds(1.0), nil, 0)

	// Prefetched with the selected placement, at a good distance.
	rw, err := injectWithPlacement(w, cand, 12, inner)
	if err != nil {
		b.Fatal(err)
	}
	nb, err := rw.Apply(w.Bin)
	if err != nil {
		b.Fatal(err)
	}
	pp, err := m.Launch(nb, w.Setup)
	if err != nil {
		b.Fatal(err)
	}
	if err := baselines.RunUntilInit(pp, m); err != nil {
		b.Fatal(err)
	}
	f1, _ := nb.Func(rw.NewName)
	pcs := []int{w.WorkPC}
	if off, ok := rw.BAT.Translate(w.WorkPC); ok {
		pcs = append(pcs, f1.Entry+off)
	}
	pw := perf.AttachWatch(pp, pcs)
	pp.Run(m.Seconds(1.5))
	win := perf.MeasureWatch(pp, pw, m.Seconds(1.0), nil, 0)
	return win.Rate / base.Rate
}

// injectWithPlacement runs the pass with the placement option.
func injectWithPlacement(w *workloads.Workload, cand []int, d int, inner bool) (*bolt.Rewrite, error) {
	return bolt.InjectPrefetchWithOptions(w.Bin, workloads.KernelFunc, cand, d,
		bolt.Options{PreferInnerPlacement: inner})
}
