package experiments

import (
	"fmt"
	"io"
	"sort"

	"rpg2/internal/fleet"
	"rpg2/internal/machine"
	"rpg2/internal/rpg2"
	"rpg2/internal/stats"
)

// Fig8Result is the search-accuracy histogram: for inputs with a clear
// single optimal distance, how far RPG²'s search landed from it.
type Fig8Result struct {
	// Deltas holds |found - optimal| per (input, trial) where RPG² tuned.
	Deltas []float64
	// Inputs is the number of single-optimal inputs considered.
	Inputs int
	// Edges and Counts form the rendered histogram.
	Edges  []float64
	Counts []int
}

// Fig8 reproduces Figure 8: run RPG² on every input that classifies as
// single-optimal and histogram the distance error against the sweep optimum.
func (r *Runner) Fig8(benches []string) (*Fig8Result, error) {
	if len(benches) == 0 {
		benches = []string{"pr", "bfs", "sssp", "bc", "is", "cg", "randacc"}
	}
	all := r.cells(benches)
	r.sweeps.fill(all)

	type cell struct {
		cellRef
		optimal int
	}
	var cells []cell
	for _, c := range all {
		sw, err := r.sweeps.get(c)
		if err != nil {
			continue
		}
		if stats.Classify(sw.Distances, sw.Speedup) != stats.SingleOptimal {
			continue
		}
		d, _ := sw.Best()
		cells = append(cells, cell{c, d})
	}
	out := &Fig8Result{Inputs: len(cells)}

	refs := make([]cellRef, len(cells))
	for i, c := range cells {
		refs[i] = c.cellRef
	}
	thaw := r.warmStart(refs)
	defer thaw()

	var specs []fleet.SessionSpec
	for i, c := range cells {
		for t := 0; t < r.opts.Trials; t++ {
			specs = append(specs, fleet.SessionSpec{
				Bench: c.bench, Input: c.input, Machine: r.mptr(c.m),
				Seed: r.opts.Seed + int64(31*i+t),
				Cold: !r.opts.WarmStart, RunSeconds: -1,
			})
		}
	}
	sessions, err := r.runBatch(specs)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		for t := 0; t < r.opts.Trials; t++ {
			s := sessions[i*r.opts.Trials+t]
			if s.State() == fleet.Failed || s.Report().Outcome != rpg2.Tuned {
				continue
			}
			d := s.Report().FinalDistance - c.optimal
			if d < 0 {
				d = -d
			}
			out.Deltas = append(out.Deltas, float64(d))
		}
	}
	out.Edges = []float64{0, 4, 11, 21, 41, 81}
	out.Counts = stats.Histogram(out.Deltas, out.Edges)
	return out, nil
}

// Render prints the Figure 8 histogram.
func (f *Fig8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 8 — |found - optimal| distance across %d single-optimal inputs (%d tuned runs)\n",
		f.Inputs, len(f.Deltas))
	labels := []string{"0-3", "4-10", "11-20", "21-40", "41-80", ">80"}
	within10 := 0
	for i, c := range f.Counts {
		fmt.Fprintf(w, "  %-6s %d\n", labels[i], c)
		if i < 2 {
			within10 += c
		}
	}
	if n := len(f.Deltas); n > 0 {
		fmt.Fprintf(w, "  within 10 of optimal: %.0f%%\n", 100*float64(within10)/float64(n))
	}
}

// Fig9Result is the profiling-duration sensitivity study: how often RPG²'s
// optimization phases activate as the profiling window grows.
type Fig9Result struct {
	Durations []float64
	// Always/Mixed/Never count inputs whose trials all activated, some
	// activated, or none activated.
	Always, Mixed, Never []int
}

// Fig9 reproduces Figure 9 for pr on the first machine. Its sessions stay
// cold even under -warm: the study measures activation sensitivity to the
// profiling window, and a store hit would skip the very phase under test.
func (r *Runner) Fig9() (*Fig9Result, error) {
	m := r.opts.Machines[0]
	durations := []float64{0.5, 1, 2, 4}
	inputs := r.inputsFor("pr")
	out := &Fig9Result{Durations: durations}
	out.Always = make([]int, len(durations))
	out.Mixed = make([]int, len(durations))
	out.Never = make([]int, len(durations))

	type cell struct {
		di, ii int
	}
	var cells []cell
	for di := range durations {
		for ii := range inputs {
			cells = append(cells, cell{di, ii})
		}
	}
	trials := max(r.opts.Trials, 2)
	var specs []fleet.SessionSpec
	for i, c := range cells {
		for t := 0; t < trials; t++ {
			specs = append(specs, fleet.SessionSpec{
				Bench: "pr", Input: inputs[c.ii], Machine: r.mptr(m),
				Seed:   r.opts.Seed + int64(7*i+t),
				Config: &rpg2.Config{ProfileSeconds: durations[c.di]},
				Cold:   true, RunSeconds: -1,
			})
		}
	}
	sessions, err := r.runBatch(specs)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		active := 0
		for t := 0; t < trials; t++ {
			s := sessions[i*trials+t]
			if s.State() != fleet.Failed && s.Report().Outcome != rpg2.NotActivated {
				active++
			}
		}
		switch {
		case active == trials:
			out.Always[c.di]++
		case active == 0:
			out.Never[c.di]++
		default:
			out.Mixed[c.di]++
		}
	}
	return out, nil
}

// Render prints the Figure 9 activation breakdown.
func (f *Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 9 — pr activation vs profiling duration (inputs: always/mixed/never)\n")
	for i, d := range f.Durations {
		fmt.Fprintf(w, "  %4.1fs: always=%d mixed=%d never=%d\n", d, f.Always[i], f.Mixed[i], f.Never[i])
	}
}

// Fig10Result holds two session timelines: a speedup case and a rollback
// case.
type Fig10Result struct {
	Speedup, Rollback *SessionTimeline
}

// SessionTimeline is one RPG² session's performance trace extended past
// detach.
type SessionTimeline struct {
	Bench, Input, Machine string
	Outcome               rpg2.Outcome
	FinalDistance         int
	Points                []rpg2.TimelinePoint
}

// Fig10 reproduces Figure 10: run RPG² on a prefetch-friendly pr input
// (soc-alpha) and on a prefetch-hostile one (bitcoinalpha-like, the paper's
// own rollback example), recording the performance timeline through
// profiling, insertion, tuning, and (for the hostile case) rollback.
func (r *Runner) Fig10() (*Fig10Result, error) {
	const friendly, hostile = "soc-alpha", "bitcoinalpha-like"
	m := r.opts.Machines[0]
	var out Fig10Result
	var err error
	if out.Speedup, err = r.timelineRun("pr", friendly, m); err != nil {
		return nil, err
	}
	if out.Rollback, err = r.timelineRun("pr", hostile, m); err != nil {
		return nil, err
	}
	return &out, nil
}

// timelineRun performs one fleet session with a post-detach measurement
// timeline: the controller's own phase timeline plus twelve half-second
// windows after it detaches. It stays cold even under -warm: Figure 10's
// subject is the anatomy of the full search, which warm seeding shortcuts.
func (r *Runner) timelineRun(bench, input string, m machine.Machine) (*SessionTimeline, error) {
	s, err := r.fleet.Submit(fleet.SessionSpec{
		Bench: bench, Input: input, Machine: r.mptr(m),
		Seed:              r.opts.Seed,
		Config:            &rpg2.Config{MinSamples: 10},
		Cold:              true,
		RunSeconds:        -1,
		TailWindows:       12,
		TailWindowSeconds: 0.5,
	})
	if err != nil {
		return nil, err
	}
	r.fleet.Drain()
	if s.State() == fleet.Failed {
		return nil, s.Err()
	}
	rep := s.Report()
	st := &SessionTimeline{
		Bench: bench, Input: input, Machine: m.Name,
		Outcome:       rep.Outcome,
		FinalDistance: rep.FinalDistance,
	}
	st.Points = append(st.Points, rep.Timeline...)
	st.Points = append(st.Points, s.Tail()...)
	return st, nil
}

// Render prints both timelines.
func (f *Fig10Result) Render(w io.Writer) {
	for _, s := range []*SessionTimeline{f.Speedup, f.Rollback} {
		if s == nil {
			continue
		}
		fmt.Fprintf(w, "\nFigure 10 — %s/%s on %s: outcome=%v d=%d\n",
			s.Bench, s.Input, s.Machine, s.Outcome, s.FinalDistance)
		sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].Seconds < s.Points[j].Seconds })
		for _, p := range s.Points {
			fmt.Fprintf(w, "  t=%6.2fs  ipc=%.3f  rate=%.4f  [%s]\n", p.Seconds, p.IPC, p.Rate, p.Phase)
		}
	}
}
