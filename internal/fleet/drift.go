// The fleet half of the phase-drift watchdog (internal/drift is the
// detector). When Config.WatchdogInterval arms it, a tuned optimize
// session does not blind-run its post-activation budget out: the fleet
// keeps the live core session attached, samples the miss-site retirement
// rate every interval through the same watch counters the tune used, and
// feeds an EWMA detector referenced against the rate recorded at
// activation. Sustained degradation re-admits the session into the
// admission queue's re-tune lane — distinct from the failure retry lane —
// and the re-dispatch re-enters the distance search seeded warm from the
// installed distance (rpgcore.Session.Retune), without re-profiling,
// re-rewriting, or re-inserting anything.
//
// With WatchdogInterval zero none of this code runs and the fleet is
// byte-identical to one without the subsystem.
package fleet

import (
	"time"

	"rpg2/internal/admission"
	"rpg2/internal/drift"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
)

// driftConfig assembles the detector configuration from the fleet knobs.
// The sampling cadence (WatchdogInterval, watchdogWindow) is the fleet's
// own: the detector only sees the rates.
func (f *Fleet) driftConfig() drift.Config {
	return drift.Config{Hysteresis: f.cfg.WatchdogHysteresis}.Defaults()
}

// finishWatched is the terminal half of a watched optimize (or re-tune)
// pass: transition to Done, arm (or re-reference) the detector, report
// the breaker, then hand the rest of the run budget to the watchdog. If
// the watchdog re-admits the session into the re-tune lane, the session
// stays open and a later dispatch finishes it; otherwise the terminal
// bookkeeping lands here.
func (f *Fleet) finishWatched(s *Session, live *rpgcore.Session, rep *rpgcore.Report, started time.Time, deadline float64) {
	f.settle(s, Done, rep.Costs.ExecSeconds, func() {
		s.report = rep
		s.wall = time.Since(started)
	})
	s.mu.Lock()
	s.live = live
	switch {
	case s.det != nil:
		// A completed re-tune pass: re-reference against the rate the
		// re-tuned distance achieves, or a phase whose best achievable
		// rate is below the old reference would re-fire forever.
		s.det.Rebase(rep.BestRate)
	case s.recoveredDet != nil:
		// A crash-recovered armed watchdog: resume its counters, but
		// reference this run's own activation rate — the old reference
		// belonged to a target that died with the old process.
		s.det = drift.Resume(f.driftConfig(), *s.recoveredDet)
		s.det.Rebase(rep.BestRate)
		s.recoveredDet = nil
	default:
		s.det = drift.New(f.driftConfig(), rep.BestRate)
	}
	s.windowMark = s.det.Samples()
	s.mu.Unlock()
	f.mu.Lock()
	if s.item.Breakable {
		f.reportBreakerLocked(s, admission.Success)
	}
	f.mu.Unlock()

	if f.runWatchdog(s, deadline) {
		return // re-admitted into the re-tune lane; not terminal yet
	}

	s.mu.Lock()
	s.wall = time.Since(started)
	s.mu.Unlock()
	f.finishOptimize(s, rep, Done)
}

// runWatchdog samples the live target until the run budget ends, the
// target exits, or the re-tune budget is spent — whichever comes first —
// and re-admits the session into the re-tune lane when the detector
// fires. Returns true when the session was re-admitted (the caller must
// leave it open). Whatever budget the sampling did not consume is run
// out plain, so a watched session still honors its RunSeconds deadline.
func (f *Fleet) runWatchdog(s *Session, deadline float64) bool {
	s.mu.Lock()
	live, det := s.live, s.det
	s.mu.Unlock()
	interval, window := f.cfg.WatchdogInterval, watchdogWindow
	for !live.Exited() {
		f.mu.Lock()
		armed := f.sched.CanRetune(s.view().granted)
		f.mu.Unlock()
		if !armed {
			break // budget spent: a firing could not be acted on
		}
		if deadline-live.Elapsed() < interval {
			break // not enough budget left for another sample cycle
		}
		if step := interval - window; step > 0 {
			live.Advance(step)
		}
		w := live.SampleWindow(window)
		s.mu.Lock()
		fired := det.Observe(w.Rate)
		windows := det.Samples() - s.windowMark
		s.mu.Unlock()
		if fired && f.scheduleRetune(s, windows) {
			return true
		}
	}
	if !live.Exited() && live.Elapsed() < deadline {
		live.RunOut(deadline)
	}
	return false
}

// scheduleRetune re-admits a drifted session into the re-tune lane:
// drift-detected and retune-scheduled journal back to back under the
// fleet lock, together with the Done -> Queued edge, so no worker ever
// sees the re-admitted item against a stale session state. Returns false
// when the lane's budget is gone (the watchdog then disarms).
func (f *Fleet) scheduleRetune(s *Session, windows int) bool {
	s.mu.Lock()
	seedD := 0
	if !f.cfg.RetuneCold && s.report != nil {
		seedD = s.report.FinalDistance
	}
	ref, ewma := s.det.Ref(), s.det.EWMA()
	s.mu.Unlock()

	f.mu.Lock()
	granted := s.view().granted
	delay, due, ok := f.sched.Retune(s.item, granted)
	if !ok {
		f.mu.Unlock()
		return false
	}
	granted++
	ev := s.event("drift-detected")
	ev.Attempt, ev.Retune = s.Attempt(), granted
	ev.Rate, ev.Ref, ev.Windows = ewma, ref, windows
	f.journal.add(ev)
	ev = s.event("retune-scheduled")
	ev.Attempt, ev.Retune, ev.Distance = s.Attempt(), granted, seedD
	ev.Backoff, ev.Due = delay, due
	f.journal.add(ev)
	f.transition(s, Queued, 0)
	if n := f.sched.Len(); n > f.queuePeak {
		f.queuePeak = n
	}
	f.mu.Unlock()
	return true
}

// runRetune dispatches a re-tune lane admission. The live path re-enters
// the distance search against the still-injected prefetch kernel through
// rpgcore's Retune — phase 4 only, no re-profile. A session recovered
// from a crash has no live target anymore (it died with the old process)
// and falls back to a full warm-seeded optimize inside runOptimize,
// which keeps the lane's store bypass and seed discipline.
func (f *Fleet) runRetune(s *Session, started time.Time, m machine.Machine) {
	s.mu.Lock()
	live, prev := s.live, s.report
	s.mu.Unlock()
	if live == nil || !prev.CanRetune() {
		f.runOptimize(s, started, m)
		return
	}
	v := s.view()

	f.transition(s, Tuning, 0)
	// The lane never consults the store: the injected kernel and its
	// sites already proved themselves at activation — only the distance
	// is stale. Journal the bypass so every optimize-kind dispatch still
	// makes exactly one store disposition.
	f.journal.add(Event{
		Session: s.ID, Type: "store-bypass", Reason: "retune",
		Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
		Attempt: v.Attempt, Retune: v.granted,
	})

	cfg := f.cfg.Session
	if s.Spec.Config != nil {
		cfg = *s.Spec.Config
	}
	cfg.Seed = s.Spec.Seed + int64(v.Attempt)*retrySeedStride + int64(v.granted)*retuneSeedStride
	cfg.SeedDistance = 0
	if !f.cfg.RetuneCold {
		cfg.SeedDistance = v.retuneDistance
	}
	re, err := live.Retune(cfg, prev)
	if err != nil {
		s.mu.Lock()
		s.live = nil
		s.report = re
		s.mu.Unlock()
		f.failSession(s, started, err)
		return
	}
	f.finishRetune(s, re)
	run, _ := f.runSeconds(s)
	f.finishWatched(s, live, re, started, run)
}

// finishRetune closes one re-tune lane pass that re-activated (a Tuned
// outcome) with its retune-complete record. A pass that did not — the
// target exited — ends with the session's terminal record instead.
func (f *Fleet) finishRetune(s *Session, rep *rpgcore.Report) {
	if rep.Outcome != rpgcore.Tuned {
		return
	}
	v := s.view()
	ev := s.event("retune-complete")
	ev.Attempt, ev.Retune = v.Attempt, v.Retunes+1
	ev.Distance, ev.Rate = rep.FinalDistance, rep.BestRate
	f.journal.add(ev)
}

// captureDriftLocked exports every session's watchdog posture for a WAL
// snapshot: the re-tune lane's, as the fold reads it (consumed grants,
// completed re-tunes, a pending re-tune and its warm seed), and the
// detector — the live one, or a crash-recovered one the session has not
// resumed yet. Caller holds f.mu.
func (f *Fleet) captureDriftLocked() []DriftRecord {
	var out []DriftRecord
	for _, s := range f.sessions {
		s.mu.Lock()
		det := s.recoveredDet
		if s.det != nil {
			st := s.det.Export()
			det = &st
		}
		s.mu.Unlock()
		v := s.view()
		if det != nil || v.granted > 0 || v.Retunes > 0 || v.Retuning {
			dr := DriftRecord{
				Session: s.ID, Granted: v.granted, Retunes: v.Retunes,
				Retuning: v.Retuning, Distance: v.retuneDistance,
			}
			if det != nil {
				dr.Detector = *det
			}
			out = append(out, dr)
		}
	}
	return out
}
