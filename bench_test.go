// Ablations of the design choices DESIGN.md §6 calls out. Each benchmark
// prints its comparison to stderr and reports the two sides as benchmark
// metrics. The paper's tables and figures are not regenerated here: that is
// `rpg2-experiments` (`-quick -all` is the scale EXPERIMENTS.md quotes),
// over the one catalogue in internal/experiments.
package rpg2_test

import (
	"fmt"
	"os"
	"testing"

	"rpg2"
	"rpg2/internal/baselines"
	"rpg2/internal/bolt"
	"rpg2/internal/machine"
	"rpg2/internal/perf"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/workloads"
)

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
	bp, bw, err := baselines.LaunchWarm(w, w.Bin, m, []int{w.WorkPC}, 1.5)
	if err != nil {
		b.Fatal(err)
	}
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
	f1, _ := nb.Func(rw.NewName)
	pcs := []int{w.WorkPC}
	pp, pw, err := baselines.LaunchWarm(w, nb, m, append(pcs, rw.BAT.Live(f1.Entry, pcs)...), 1.5)
	if err != nil {
		b.Fatal(err)
	}
	win := perf.MeasureWatch(pp, pw, m.Seconds(1.0), nil, 0)
	return win.Rate / base.Rate
}

// injectWithPlacement runs the pass with the placement option.
func injectWithPlacement(w *workloads.Workload, cand []int, d int, inner bool) (*bolt.Rewrite, error) {
	return bolt.InjectPrefetchWithOptions(w.Bin, workloads.KernelFunc, cand, d,
		bolt.Options{PreferInnerPlacement: inner})
}
