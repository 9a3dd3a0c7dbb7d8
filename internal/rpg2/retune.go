package rpg2

import (
	"errors"

	"rpg2/internal/perf"
	"rpg2/internal/proc"
)

// This file is the controller's re-entry point for continuous re-tuning:
// a session whose tuned distance has gone stale (the watchdog flagged
// phase drift) re-enters the distance search *without* re-profiling,
// re-rewriting, or re-inserting code. The injected f1 and its patch
// points are still live in the target; only the distance immediates need
// to move. The fleet's re-tune lane is the intended caller.

// ErrNotRetunable is returned when a report cannot seed a re-tune: the
// session never activated, rolled back, or the report was deserialised
// (e.g. recovered from a WAL) and no longer carries the live insertion
// handle.
var ErrNotRetunable = errors.New("rpg2: session is not re-tunable (no live insertion)")

// CanRetune reports whether the report carries everything a live re-tune
// needs: a Tuned outcome and the in-process insertion handle. Reports
// round-tripped through JSON (the fleet journal, the daemon wire) lose
// the handle and report false — crash-recovered sessions re-tune through
// a fresh warm-seeded Optimize instead.
func (r *Report) CanRetune() bool { return r != nil && r.Outcome == Tuned && r.ins != nil }

// Retune re-enters phase 4 only, against the still-injected f1 from a
// previous Tuned report on the same process. The search starts from
// cfg.SeedDistance — the fleet passes the currently installed distance,
// giving the warm ±2 gradient span — or from a fresh random distance when
// unset (the cold re-tune baseline). Unlike Optimize, a re-tune never
// rolls back: the injection already proved itself at activation, and a
// drifted phase is re-judged against the distances explored now, not
// against the stale pre-activation baseline. If every probe fails to beat
// the previous best the old distance is simply re-installed.
func (s *Session) Retune(cfg Config, prev *Report) (*Report, error) {
	return New(s.mach, cfg).Retune(s.p, prev)
}

// Retune is the controller half of Session.Retune; see there.
func (c *Controller) Retune(p *proc.Process, prev *Report) (*Report, error) {
	if !prev.CanRetune() {
		return nil, ErrNotRetunable
	}
	ins := prev.ins
	r := &Report{
		FuncName:     prev.FuncName,
		Sites:        prev.Sites,
		F1Entry:      prev.F1Entry,
		BaselineIPC:  prev.BaselineIPC,
		BaselineRate: prev.BaselineRate,
		Samples:      prev.Samples,
		Explored:     make(map[int]float64),
	}
	if exited, err := c.checkTarget(p, r); exited {
		return r, err
	}

	tr := proc.Attach(p)
	defer tr.Detach()
	agent := proc.Preload(p)
	tl := c.timeline(p, r)
	defer tl.phase("detach")

	// A fresh private work counter over the candidate sites, in both code
	// versions (execution is in f1; rates stay comparable with the
	// activation-time readings, which covered the same set).
	var pcs []int
	for _, site := range prev.Sites {
		pcs = append(pcs, site.DemandPC)
	}
	c.watch = perf.AttachWatch(p, append(pcs, ins.rw.BAT.Live(ins.f1Entry, pcs)...))
	defer perf.DetachWatch(p, c.watch)

	tl.phase("tune")
	r.InitialDistance = c.initialDistance()
	best, err := c.tune(tr, agent, ins, r, tl.record)
	r.BestIPC = best.ipc
	r.BestRate = best.rate
	r.Costs.ExecSeconds = tl.since()
	if err != nil {
		return r, err
	}
	if exited, err := c.checkTarget(p, r); exited {
		return r, err
	}

	d := best.d
	if d <= 0 {
		d = prev.FinalDistance // nothing measured: keep what we had
	}
	if err := c.setDistance(tr, agent, ins, d); err != nil {
		return r, err
	}
	r.FinalDistance = d
	r.Outcome = Tuned
	r.ins = ins // chained re-tunes stay live
	tl.record("tuned", best.ipc, best.rate)
	return r, nil
}

// SampleWindow measures one deterministic window of the session's work
// watch — the watchdog's low-overhead sampler. The watch was extended
// across the f0→f1 version switch at insertion, so the rate remains the
// miss-site retirement rate whichever version is executing.
func (s *Session) SampleWindow(windowSeconds float64) perf.Window {
	return perf.MeasureWatch(s.p, s.watch, s.mach.Seconds(windowSeconds), nil, 0)
}

// Advance runs the target for the given simulated duration (relative,
// unlike RunOut's absolute clock mark) — the watchdog's sleep between
// samples.
func (s *Session) Advance(seconds float64) {
	s.p.Run(s.mach.Seconds(seconds))
}

// Elapsed reports the target's absolute simulated clock in seconds.
func (s *Session) Elapsed() float64 { return s.mach.ToSeconds(s.p.Clock()) }

// Exited reports whether the target has finished (or crashed).
func (s *Session) Exited() bool { return s.p.State() != proc.Running }
