package experiments

import (
	"fmt"
	"io"

	"rpg2/internal/baselines"
	"rpg2/internal/machine"
)

// Curve is one speedup-vs-distance series.
type Curve struct {
	Bench, Input, Machine string
	Distances             []int
	Speedup               []float64
}

// CurveSet is the result of the sweep figures (1, 2 and 3).
type CurveSet struct {
	Title  string
	Curves []Curve
}

// curveFrom converts a sweep.
func curveFrom(s *baselines.Sweep) Curve {
	return Curve{
		Bench: s.Bench, Input: s.Input, Machine: s.Machine,
		Distances: s.Distances, Speedup: s.Speedup,
	}
}

// sweepCurves runs every cell's distance sweep through the fleet at once,
// then assembles the curves in cell order.
func (r *Runner) sweepCurves(cells []cellRef, errf func(c cellRef, err error) error) ([]Curve, error) {
	r.sweeps.fill(cells)
	curves := make([]Curve, len(cells))
	for i, c := range cells {
		sw, err := r.sweeps.get(c)
		if err != nil {
			return nil, errf(c, err)
		}
		curves[i] = curveFrom(sw)
	}
	return curves, nil
}

// Fig1 reproduces Figure 1: sssp speedup versus prefetch distance on the
// Haswell machine across several inputs — the best distance range shifts
// substantially between inputs.
func (r *Runner) Fig1() (*CurveSet, error) {
	m, _ := machine.ByName("haswell")
	inputs := r.inputsFor("sssp")
	if len(inputs) > 6 {
		inputs = inputs[:6]
	}
	cells := make([]cellRef, len(inputs))
	for i, in := range inputs {
		cells[i] = cellRef{"sssp", in, m}
	}
	curves, err := r.sweepCurves(cells, func(c cellRef, err error) error {
		return fmt.Errorf("fig1 %s: %w", c.input, err)
	})
	if err != nil {
		return nil, err
	}
	return &CurveSet{
		Title:  "Figure 1 — sssp speedup vs prefetch distance (Haswell)",
		Curves: curves,
	}, nil
}

// Fig2 reproduces Figure 2: asymptotic speedup-vs-distance curves — the AJ
// benchmarks, whose performance saturates as the distance grows.
func (r *Runner) Fig2() (*CurveSet, error) {
	m := r.opts.Machines[0]
	benches := []string{"is", "cg", "randacc"}
	cells := make([]cellRef, len(benches))
	for i, b := range benches {
		cells[i] = cellRef{b, "", m}
	}
	curves, err := r.sweepCurves(cells, func(c cellRef, err error) error {
		return fmt.Errorf("fig2 %s: %w", c.bench, err)
	})
	if err != nil {
		return nil, err
	}
	return &CurveSet{
		Title:  fmt.Sprintf("Figure 2 — AJ benchmark distance curves (%s)", m.Name),
		Curves: curves,
	}, nil
}

// Fig3 reproduces Figure 3's point: the same inputs behave differently on
// the two microarchitectures — pr's distance curves on Cascade Lake and
// Haswell for the same inputs.
func (r *Runner) Fig3() (*CurveSet, error) {
	inputs := r.inputsFor("pr")
	if len(inputs) > 3 {
		inputs = inputs[:3]
	}
	var cells []cellRef
	for _, in := range inputs {
		for _, m := range r.opts.Machines {
			cells = append(cells, cellRef{"pr", in, m})
		}
	}
	curves, err := r.sweepCurves(cells, func(c cellRef, err error) error {
		return fmt.Errorf("fig3 %s/%s: %w", c.input, c.m.Name, err)
	})
	if err != nil {
		return nil, err
	}
	return &CurveSet{
		Title:  "Figure 3 — pr distance curves across microarchitectures",
		Curves: curves,
	}, nil
}

// Render prints each curve as a series of distance:speedup points plus the
// best-performing region, matching how the paper's line plots read.
func (cs *CurveSet) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", cs.Title)
	for _, c := range cs.Curves {
		best, bestV := 0, 0.0
		for i, v := range c.Speedup {
			if v > bestV {
				best, bestV = c.Distances[i], v
			}
		}
		// Best-performing shaded range: distances within 2.5% of max.
		lo, hi := best, best
		for i, v := range c.Speedup {
			if v >= 0.975*bestV {
				if c.Distances[i] < lo {
					lo = c.Distances[i]
				}
				if c.Distances[i] > hi {
					hi = c.Distances[i]
				}
			}
		}
		fmt.Fprintf(w, "%s/%s on %s: best d=%d (%.2fx), best range [%d,%d]\n",
			c.Bench, c.Input, c.Machine, best, bestV, lo, hi)
		fmt.Fprint(w, "  ")
		for i, d := range c.Distances {
			fmt.Fprintf(w, "%d:%.2f ", d, c.Speedup[i])
		}
		fmt.Fprintln(w)
	}
}
