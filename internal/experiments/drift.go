// The drift study: the ROADMAP's continuous re-tuning item, quantified.
// Each drifting workload is run three ways — with no watchdog (the
// pre-drift fleet: tune once, then ride the stale distance to the end of
// the run), with the watchdog re-tuning warm from the installed distance,
// and with the RetuneCold ablation (the re-tune searches from a random
// start) — and the study reports detection latency (watchdog windows from
// arming to firing), re-tune search cost (distance probes), and where the
// re-tuned distance lands. The recovery verdict re-measures the re-tuned
// distance with a noise-free static session whose trailing window falls in
// the drifted phase, head-to-head against the no-watchdog arm's identical
// trailing window.
package experiments

import (
	"fmt"
	"io"

	"rpg2/internal/fleet"
	"rpg2/internal/rpg2"
	"rpg2/internal/workloads"
)

// driftRunSeconds is the study's fixed simulated run budget: long enough
// that every drifting workload passes its phase switch, the watchdog
// detects, and the re-tune completes with run to spare. It is independent
// of Options.RunSeconds so the phase geometry never truncates at smoke
// scale.
const driftRunSeconds = 40

// driftRecoveryFloor is the verdict threshold: a fired cell counts as
// recovered when the re-tuned distance's static end-of-run rate exceeds
// the no-watchdog arm's drifted rate by at least this factor.
const driftRecoveryFloor = 1.1

// driftParityFloor is the no-harm threshold: a watchdog firing on a cell
// whose installed distance already covers the new phase (the detector sees
// the phase's intrinsic rate drop, not a tunable one) must re-tune to at
// least this fraction of the stale distance's rate — the re-tune lane may
// confirm a distance, never lose one.
const driftParityFloor = 0.95

// DriftArm is one watchdog configuration's outcome on one cell.
type DriftArm struct {
	// Outcome is the controller outcome of the initial tune ("tuned", …).
	Outcome string
	// Fired reports whether the watchdog detected drift and the re-tune
	// lane granted a re-tune.
	Fired bool
	// DetectWindows is the journaled detection latency: watchdog sample
	// windows from arming (activation) to firing. The phase switch falls
	// inside this span, so it upper-bounds switch-to-detection latency.
	DetectWindows int
	// RetuneProbes is the re-tune search's distance-edit count; with
	// detection it forms the cell's recovery latency in windows.
	RetuneProbes int
	// RetuneDistance is the re-tuned landing point (zero if the re-tune
	// rolled back or never fired).
	RetuneDistance int
	// StaticRate is the noise-free end-of-run rate of RetuneDistance.
	StaticRate float64
}

// RecoveryWindows is the arm's total recovery latency in measurement
// windows: detection plus the re-tune search.
func (a DriftArm) RecoveryWindows() int { return a.DetectWindows + a.RetuneProbes }

// DriftRow is one (drifting bench, seed) cell of the study.
type DriftRow struct {
	Bench string
	Seed  int64
	// TunedDistance is the initial activation distance (the distance that
	// goes stale at the phase switch); from the no-watchdog arm.
	TunedDistance int
	// BaselineRate is the no-watchdog arm's end-of-run trailing-window
	// rate — the drifted rate a fleet without the watchdog is left with.
	BaselineRate float64
	// Warm re-tunes seeded from the installed distance; Cold is the
	// RetuneCold ablation.
	Warm, Cold DriftArm
	// Comparable marks cells where the warm watchdog fired and the
	// baseline measured a drifted rate to compare against.
	Comparable bool
	// Recovery is Warm.StaticRate / BaselineRate on comparable cells.
	Recovery float64
}

// DriftResult is the full study.
type DriftResult struct {
	Machine string
	Rows    []DriftRow
}

// TableDrift runs the drift study over the drifting benchmarks. Every
// session is cold and seeded, so each arm is deterministic; the three arms
// run on their own fleets because the watchdog knobs are fleet-level.
func (r *Runner) TableDrift(benches []string) (*DriftResult, error) {
	if len(benches) == 0 {
		benches = workloads.DriftNames()
	}
	m := r.opts.Machines[0]
	trials := r.opts.Trials
	if trials < 3 {
		trials = 3
	}

	type cell struct {
		bench string
		seed  int64
	}
	var cells []cell
	for _, b := range benches {
		for k := 0; k < trials; k++ {
			cells = append(cells, cell{b, int64(k + 1)})
		}
	}
	spec := func(c cell, tail bool) fleet.SessionSpec {
		s := fleet.SessionSpec{
			Bench: c.bench, Machine: r.mptr(m), Seed: c.seed,
			Cold: true, RunSeconds: driftRunSeconds,
		}
		if tail {
			s.TailSeconds = 1.0
		}
		return s
	}

	// The no-watchdog baseline measures the drifted end-of-run rate with
	// a trailing window; the watchdog arms run plain (an armed watchdog
	// replaces the run-out, so a tail spec would disarm it) and are read
	// back through their journals.
	arms := []struct {
		cfg  fleet.Config
		tail bool
	}{
		{fleet.Config{Machine: m, Workers: r.opts.Parallelism}, true},
		{fleet.Config{Machine: m, Workers: r.opts.Parallelism, WatchdogInterval: 1}, false},
		{fleet.Config{Machine: m, Workers: r.opts.Parallelism, WatchdogInterval: 1, RetuneCold: true}, false},
	}
	out := &DriftResult{Machine: m.Name, Rows: make([]DriftRow, len(cells))}
	for i, c := range cells {
		out.Rows[i] = DriftRow{Bench: c.bench, Seed: c.seed}
	}
	for ai, arm := range arms {
		f := fleet.New(arm.cfg)
		specs := make([]fleet.SessionSpec, len(cells))
		for i, c := range cells {
			specs[i] = spec(c, arm.tail)
		}
		sessions, err := f.Run(specs)
		if err != nil {
			f.Close()
			return nil, err
		}
		for i, s := range sessions {
			row := &out.Rows[i]
			if ai == 0 {
				if s.State() == fleet.Failed {
					continue
				}
				if rep := s.Report(); rep != nil && rep.Outcome == rpg2.Tuned {
					row.TunedDistance = rep.FinalDistance
				}
				if meas := s.Measurement(); meas != nil {
					row.BaselineRate = meas.Rate
				}
				continue
			}
			a := driftArmOf(s, f.Journal())
			if ai == 1 {
				row.Warm = a
			} else {
				row.Cold = a
			}
		}
		f.Close()
	}

	// The recovery verdict: re-measure each fired arm's re-tuned distance
	// with a static session over the same budget, so its trailing window
	// samples the drifted phase exactly as the baseline arm's did.
	refs := make([]cellRef, 0, len(benches))
	for _, b := range benches {
		refs = append(refs, cellRef{b, "", m})
	}
	r.cands.fill(refs)
	var statSpecs []fleet.SessionSpec
	var statIdx []int // 2*row for warm, 2*row+1 for cold
	for i := range out.Rows {
		row := &out.Rows[i]
		cand, err := r.cands.get(cellRef{row.Bench, "", m})
		if err != nil {
			continue
		}
		for j, a := range []DriftArm{row.Warm, row.Cold} {
			if !a.Fired || a.RetuneDistance <= 0 {
				continue
			}
			statSpecs = append(statSpecs, fleet.SessionSpec{
				Kind: fleet.StaticJob, Bench: row.Bench, Machine: r.mptr(m),
				Distance: a.RetuneDistance, Candidates: cand,
				Seed: row.Seed, RunSeconds: driftRunSeconds, TailSeconds: 1.0,
			})
			statIdx = append(statIdx, 2*i+j)
		}
	}
	statics, err := r.runBatch(statSpecs)
	if err != nil {
		return nil, err
	}
	for j, s := range statics {
		row := &out.Rows[statIdx[j]/2]
		meas := s.Measurement()
		if meas == nil {
			continue
		}
		if statIdx[j]%2 == 0 {
			row.Warm.StaticRate = meas.Rate
		} else {
			row.Cold.StaticRate = meas.Rate
		}
	}
	for i := range out.Rows {
		row := &out.Rows[i]
		if row.Warm.Fired && row.BaselineRate > 0 && row.Warm.StaticRate > 0 {
			row.Comparable = true
			row.Recovery = row.Warm.StaticRate / row.BaselineRate
		}
	}
	return out, nil
}

// driftArmOf reads one watchdog session's drift lane out of its journal.
func driftArmOf(s *fleet.Session, j *fleet.Journal) DriftArm {
	a := DriftArm{Outcome: "failed"}
	if s.State() == fleet.Failed {
		return a
	}
	if rep := s.Report(); rep != nil {
		a.Outcome = rep.Outcome.String()
	}
	for _, e := range j.SessionEvents(s.ID) {
		switch e.Type {
		case "drift-detected":
			a.Fired = true
			a.DetectWindows = e.Windows
		case "retune-complete":
			a.RetuneDistance = e.Distance
		}
	}
	if a.Fired && !s.Retuning() && a.RetuneDistance > 0 {
		// The session's final report is the re-tune's report: its edit
		// count is the re-tune search cost.
		if rep := s.Report(); rep != nil {
			a.RetuneProbes = rep.Costs.PDEdits
		}
	}
	return a
}

// driftControl classifies the controls: is-drift's phase shift is benign
// (the rate does not degrade, so the watchdog must stay quiet) and
// chase-drift never activates (no tuned distance, so the watchdog never
// arms). Firing on either is a verdict failure.
func driftControl(bench string) bool {
	return bench == "is-drift" || bench == "chase-drift"
}

// Render prints the study and the summary line the CI smoke greps for.
// "drift OK" means: the watchdog fired on at least one drifting cell and
// stayed quiet on every control cell; at least one comparable cell's
// re-tuned distance recovered the end-of-run rate past driftRecoveryFloor
// times the no-watchdog drifted rate (the hard-drift payoff); and no
// comparable cell fell below driftParityFloor (a re-tune that merely
// confirms a still-adequate distance is fine, one that loses rate is not).
// Recovery latency is the fired arms' detection windows plus re-tune
// probes; the no-watchdog baseline's is unbounded — it rides the stale
// distance to the end of the run.
func (t *DriftResult) Render(w io.Writer) {
	fmt.Fprintf(w, "\nDrift study — phase-drift watchdog and the re-tune lane (%s, %gs runs)\n", t.Machine, float64(driftRunSeconds))
	fmt.Fprintf(w, "  baseline = no watchdog: the activation-time distance rides the phase\n")
	fmt.Fprintf(w, "  switch to the end of the run. warm/cold re-tune on detection, seeded\n")
	fmt.Fprintf(w, "  from the installed distance vs a random restart. Each fired arm shows\n")
	fmt.Fprintf(w, "  detection windows + re-tune probes = recovery latency, its re-tuned\n")
	fmt.Fprintf(w, "  distance, and that distance's end-of-run rate over the baseline's.\n")
	fmt.Fprintf(w, "  Controls: is-drift's shift is benign (must stay quiet), chase-drift\n")
	fmt.Fprintf(w, "  never activates (must never arm).\n\n")
	fmt.Fprintf(w, "  %-12s %4s %5s %9s %22s %22s %9s\n",
		"bench", "seed", "d0", "drifted", "warm", "cold", "recovery")
	arm := func(a DriftArm) string {
		if !a.Fired {
			return a.Outcome + " (quiet)"
		}
		return fmt.Sprintf("%dw+%dp d%d", a.DetectWindows, a.RetuneProbes, a.RetuneDistance)
	}
	fired, recovered, parity, comparable := 0, 0, 0, 0
	controlFired := 0
	warmLat, coldLat, bothFired := 0, 0, 0
	for _, row := range t.Rows {
		rec := "-"
		if row.Comparable {
			comparable++
			rec = fmt.Sprintf("%.2fx", row.Recovery)
			switch {
			case row.Recovery >= driftRecoveryFloor:
				recovered++
			case row.Recovery >= driftParityFloor:
				parity++
			default:
				rec += "!"
			}
		}
		if row.Warm.Fired || row.Cold.Fired {
			if driftControl(row.Bench) {
				controlFired++
			} else {
				fired++
			}
		}
		if row.Warm.Fired && row.Cold.Fired {
			bothFired++
			warmLat += row.Warm.RecoveryWindows()
			coldLat += row.Cold.RecoveryWindows()
		}
		fmt.Fprintf(w, "  %-12s %4d %5d %9.4f %22s %22s %9s\n",
			row.Bench, row.Seed, row.TunedDistance, row.BaselineRate,
			arm(row.Warm), arm(row.Cold), rec)
	}
	status := "drift OK"
	if fired == 0 || recovered == 0 || recovered+parity < comparable || controlFired > 0 {
		status = "drift FAIL"
	}
	fmt.Fprintf(w, "\n  summary: watchdog fired on %d drifting cells and %d control cells; %d/%d comparable cells recovered >= %.1fx the drifted rate (%d at parity)",
		fired, controlFired, recovered, comparable, driftRecoveryFloor, parity)
	if bothFired > 0 {
		mw := float64(warmLat) / float64(bothFired)
		mc := float64(coldLat) / float64(bothFired)
		fmt.Fprintf(w, "; mean recovery latency warm %.1f / cold %.1f windows vs baseline never",
			mw, mc)
	}
	fmt.Fprintf(w, " — %s\n", status)
}
