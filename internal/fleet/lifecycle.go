package fleet

import (
	"fmt"
	"slices"
	"time"

	"rpg2/internal/admission"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
)

// parkSession terminates a session the circuit breaker refused to run. A
// parked session never dispatches, so its wall time is exactly zero by
// definition — no wall-clock read, so the parked path stays as
// deterministic as the virtual-clock scheduling that parked it. (The
// other time.Now uses in this package — journal Wall stamps, session wall
// latencies, SessionsPerSec — are observability-only wall metrics;
// admission, retry, and breaker decisions all run on the scheduler's
// virtual clock, and the byte-identity CI checks strip wall fields.)
func (f *Fleet) parkSession(s *Session) {
	f.settle(s, Degraded, 0, func() { s.wall = 0 })
	ev := s.event("session-degraded")
	ev.State, ev.Attempt = Degraded.String(), s.Attempt()
	f.finish(s, ev)
}

// finish journals ev, the terminal record of an attempt nothing re-admits,
// and then releases Session.Finished: add returns after the record's commit,
// so whoever Finished releases finds the outcome on disk.
func (f *Fleet) finish(s *Session, ev Event) {
	f.journal.add(ev)
	close(s.finished)
}

// tryRetryLocked re-admits a Failed or RolledBack session through the
// backoff lane if budget remains, journaling the decision before the
// state edge so the item is never visible to workers in a stale state.
// Caller holds f.mu.
func (f *Fleet) tryRetryLocked(s *Session) bool {
	backoff, due, ok := f.sched.Retry(s.item)
	if !ok {
		return false
	}
	ev := s.event("retry-scheduled")
	ev.Attempt, ev.Backoff, ev.Due = s.item.Attempt, backoff, due
	f.journal.add(ev)
	f.transition(s, Queued, 0)
	if n := f.sched.Len(); n > f.queuePeak {
		f.queuePeak = n
	}
	return true
}

// reportBreakerLocked feeds an optimize attempt's outcome to its key's
// breaker and journals any trip or recovery. Caller holds f.mu.
func (f *Fleet) reportBreakerLocked(s *Session, o admission.Outcome) {
	opened, closed := f.sched.Report(s.item.Key, o)
	if opened {
		f.journal.add(Event{
			Session: s.ID, Type: "breaker-open",
			Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: s.MachineName(),
		})
	}
	if closed {
		f.journal.add(Event{
			Session: s.ID, Type: "breaker-closed",
			Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: s.MachineName(),
		})
	}
}

// transition moves a session along the state machine, journaling the edge.
// An illegal edge is a controller bug; it panics rather than silently
// corrupting the lifecycle invariants the tests assert on.
func (f *Fleet) transition(s *Session, next State, at float64) {
	f.settle(s, next, at, nil)
}

// settle is transition with the edge's outcome attached: outcome (when
// non-nil) stores the session's result fields — report, error, wall time —
// before the edge is journaled. State reads the journal's fold, so a poller
// that observes a terminal state also observes its outcome.
func (f *Fleet) settle(s *Session, next State, at float64, outcome func()) {
	if outcome != nil {
		s.mu.Lock()
		outcome()
		s.mu.Unlock()
	}
	cur := s.State()
	if cur == next {
		return
	}
	if !slices.Contains(legalNext[cur], next) {
		panic(fmt.Sprintf("fleet: illegal transition %v -> %v (session %d)", cur, next, s.ID))
	}
	f.journal.add(Event{
		Session: s.ID, Type: "state", State: next.String(), At: at,
		Bench: s.Spec.Bench, Input: s.Spec.Input,
	})
}

// failSession journals a failed attempt's terminal record, then re-admits
// the session through the retry lane if budget remains. No epoch roll
// seeds in between (persister.retrying).
func (f *Fleet) failSession(s *Session, started time.Time, err error) {
	if f.persist != nil {
		f.persist.retrying.RLock()
		defer f.persist.retrying.RUnlock()
	}
	f.settle(s, Failed, 0, func() {
		s.err = err
		s.wall = time.Since(started)
	})
	ev := s.event("session-failed")
	ev.State, ev.Attempt, ev.Err = Failed.String(), s.Attempt(), err.Error()
	f.journal.add(ev)
	f.mu.Lock()
	if s.item.Breakable {
		f.reportBreakerLocked(s, admission.Failure)
	}
	retried := f.tryRetryLocked(s)
	f.mu.Unlock()
	if !retried {
		close(s.finished) // session-failed above was this session's last record
	}
}

// machineFor resolves a session's effective machine.
func (f *Fleet) machineFor(s *Session) machine.Machine {
	if s.Spec.Machine != nil {
		return *s.Spec.Machine
	}
	return f.cfg.Machine
}

// runSeconds resolves a session's end-of-run clock budget; ok is false
// when the spec opted out of the post-optimization run.
func (f *Fleet) runSeconds(s *Session) (float64, bool) {
	run := s.Spec.RunSeconds
	if run == 0 {
		run = f.cfg.RunSeconds
	}
	return run, run > 0
}

// retrySeedStride separates consecutive attempts' controller seeds; any
// large odd constant works, it only has to be deterministic.
const retrySeedStride = 1_000_003

// retuneSeedStride separates re-tune passes' controller seeds the same
// way, on an axis independent of the retry attempt's.
const retuneSeedStride = 7_368_787

// runSession dispatches one admitted session to its kind's runner.
func (f *Fleet) runSession(s *Session) {
	started := time.Now()
	s.mu.Lock()
	s.err = nil // a retry attempt supersedes the previous attempt's error
	s.mu.Unlock()
	m := f.machineFor(s)
	switch s.Spec.Kind {
	case BaselineJob:
		f.runAux(s, started, m, f.baselineJob)
	case StaticJob:
		f.runAux(s, started, m, f.staticJob)
	case SweepJob:
		f.runAux(s, started, m, sweepJob)
	case ProfileJob:
		f.runAux(s, started, m, profileJob)
	case APTGETJob:
		f.runAux(s, started, m, aptgetJob)
	default:
		if s.Retuning() {
			f.runRetune(s, started, m)
			return
		}
		f.runOptimize(s, started, m)
	}
}

// runOptimize drives one optimize session end to end: store lookup (unless
// cold), launch from the build cache, optimize under the phase hook,
// post-run, store policy, terminal bookkeeping.
func (f *Fleet) runOptimize(s *Session, started time.Time, m machine.Machine) {
	// The store key uses the session's *effective* machine: a distance
	// tuned on one microarchitecture transplants badly to another
	// (Figure 3), so the same bench on two machines must never
	// cross-seed.
	key := Key{Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name}

	cfg := f.cfg.Session
	if s.Spec.Config != nil {
		cfg = *s.Spec.Config
	}
	// A session re-dispatched through the re-tune lane whose live target
	// died with a previous process (crash recovery) falls back to a full
	// re-optimize here, still under the lane's discipline: store bypassed,
	// search warm-seeded from the persisted distance.
	v := s.view()
	attempt, retuning, granted := v.Attempt, v.Retuning, 0
	if retuning {
		granted = v.granted
	}
	// Each retry attempt derives a fresh deterministic seed so a rolled-
	// back search does not replay the same random starting distance;
	// re-tune passes stride on an independent axis.
	cfg.Seed = s.Spec.Seed + int64(attempt)*retrySeedStride + int64(granted)*retuneSeedStride
	if f.cfg.Faults != nil {
		userFault := cfg.FaultHook
		injected := f.cfg.Faults.Hook(s.Spec.Seed, attempt)
		cfg.FaultHook = func(stage string) error {
			if userFault != nil {
				if err := userFault(stage); err != nil {
					return err
				}
			}
			return injected(stage)
		}
	}

	// Retry attempts run cold by design: the cached profile (or the luck
	// of the first attempt) is suspect, so they re-profile from scratch.
	// Re-tune fallbacks run cold too: the lane never touches the store.
	cold := s.Spec.Cold || f.cfg.DisableStore || attempt > 0 || retuning
	var seed Entry
	var seedGen uint64
	var seedKey Key
	warm := false
	translated := false
	if cold {
		// A bypassed store is still demand on the store: journal why this
		// session never asked, so snapshot accounting sees every optimize
		// attempt make exactly one store disposition.
		reason := "cold"
		switch {
		case retuning:
			reason = "retune"
		case attempt > 0:
			reason = "retry"
		case f.cfg.DisableStore:
			reason = "disabled"
		}
		f.journal.add(Event{
			Session: s.ID, Type: "store-bypass", Reason: reason,
			Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
			Attempt: attempt, Retune: granted,
		})
	} else {
		if e, gen, ok := f.store.Lookup(key); ok {
			warm, seed, seedGen, seedKey = true, e, gen, key
			cfg.SeedFunc = e.Func
			cfg.SeedCandidates = e.Candidates
			cfg.SeedDistance = e.Distance
			cfg.ProfileSeconds = warmProfileSeconds
		} else if f.cfg.Translate {
			// Third tier: no profile for this machine, but a sibling
			// machine's profile for the same workload can seed a
			// hypothesis — its candidates as-is, its distance scaled by
			// the memory-latency ratio. The search validates the
			// hypothesis with the full cold span (Config.SeedTranslated).
			if e, src, gen, ok := f.store.LookupTranslated(key); ok {
				if sm, known := machine.ByName(src.Machine); !known {
					// A sibling from a machine this build cannot model
					// (e.g. a foreign snapshot) is unusable: return the
					// reuse charge and fall through to a cold start.
					f.store.Refund(src, gen)
				} else {
					translated = true
					seed, seedGen, seedKey = e, gen, src
					cfg.SeedFunc = e.Func
					cfg.SeedCandidates = e.Candidates
					cfg.SeedDistance = TranslateDistance(sm, m, e.Distance)
					cfg.SeedTranslated = true
					cfg.ProfileSeconds = warmProfileSeconds
				}
			}
		}
		switch {
		case warm:
			f.journal.add(Event{
				Session: s.ID, Type: "store-hit", Warm: true,
				Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
			})
		case translated:
			f.journal.add(Event{
				Session: s.ID, Type: "store-translated", Translated: true,
				Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
				Source: seedKey.Machine, Distance: cfg.SeedDistance,
			})
		default:
			f.journal.add(Event{
				Session: s.ID, Type: "store-miss",
				Bench: s.Spec.Bench, Input: s.Spec.Input, Machine: m.Name,
			})
		}
	}
	if retuning && !f.cfg.RetuneCold && v.retuneDistance > 0 {
		// The lane's warm seed: re-enter the search from the distance the
		// drifted session had installed, with the warm ±2 gradient span.
		cfg.SeedDistance = v.retuneDistance
	}

	// A seeded session that dies before the controller runs consumed the
	// entry's reuse budget for nothing — refund it, or transient build
	// failures would stale a good profile.
	refundSeed := func() {
		if warm || translated {
			f.store.Refund(seedKey, seedGen)
		}
	}
	w, err := f.cfg.Builds.Build(s.Spec.Bench, s.Spec.Input, 1<<30)
	if err != nil {
		refundSeed()
		f.failSession(s, started, err)
		return
	}
	sess, err := rpgcore.NewSession(m, w)
	if err != nil {
		refundSeed()
		f.failSession(s, started, err)
		return
	}

	userPhase := cfg.OnPhase
	cfg.OnPhase = func(name string, at float64) {
		if userPhase != nil {
			userPhase(name, at)
		}
		switch name {
		case "profile":
			f.transition(s, Profiling, at)
		case "rewrite", "insert":
			f.transition(s, Rewriting, at)
		case "tune":
			f.transition(s, Tuning, at)
		}
	}
	rep, err := sess.Optimize(cfg)
	if err != nil {
		s.mu.Lock()
		s.report = rep
		s.mu.Unlock()
		f.failSession(s, started, err)
		return
	}
	if retuning {
		// The fallback re-optimize closes the crash-recovered re-tune
		// lane pass (journaling retune-complete when it re-activated).
		f.finishRetune(s, rep)
	}

	// Let the optimized (or untouched) target run out its budget, as a
	// fleet operator would leave the service attached to a live process.
	// A measured spec (TailSeconds > 0) ends with a trailing window
	// instead; a timeline spec (TailWindows > 0) measures the post-detach
	// windows of Figure 10. An armed watchdog replaces the blind run-out
	// with drift sampling and owns the session's terminal bookkeeping.
	run, wantRun := f.runSeconds(s)
	switch {
	case s.Spec.TailSeconds > 0 && wantRun:
		meas, merr := sess.MeasureToBudget(run, s.Spec.TailSeconds)
		if merr != nil {
			s.mu.Lock()
			s.report = rep
			s.mu.Unlock()
			f.failSession(s, started, merr)
			return
		}
		s.mu.Lock()
		s.meas = &meas
		s.mu.Unlock()
	case s.Spec.TailWindows > 0:
		base := 0.0
		if n := len(rep.Timeline); n > 0 {
			base = rep.Timeline[n-1].Seconds
		}
		tail := sess.TailTimeline(s.Spec.TailWindows, s.Spec.TailWindowSeconds, base)
		s.mu.Lock()
		s.tail = tail
		s.mu.Unlock()
	case wantRun:
		if f.cfg.WatchdogInterval > 0 && rep.Outcome == rpgcore.Tuned {
			if !cold {
				f.applyStorePolicy(s, key, rep, warm, seed, seedGen)
			}
			f.finishWatched(s, sess, rep, started, run)
			return
		}
		sess.RunOut(run)
	}

	if !cold {
		f.applyStorePolicy(s, key, rep, warm, seed, seedGen)
	}

	final := Done
	if rep.Outcome == rpgcore.RolledBack {
		final = RolledBack
	}
	f.settle(s, final, rep.Costs.ExecSeconds, func() {
		s.report = rep
		s.wall = time.Since(started)
	})

	// Resilience policy: every optimize outcome feeds the key's breaker,
	// and a rolled-back attempt may re-enter through the retry lane — in
	// which case the terminal record belongs to a later attempt.
	f.mu.Lock()
	if final == Done {
		f.reportBreakerLocked(s, admission.Success)
	} else {
		f.reportBreakerLocked(s, admission.Rollback)
	}
	retried := false
	if final == RolledBack {
		retried = f.tryRetryLocked(s)
	}
	f.mu.Unlock()
	if retried {
		return
	}

	f.finishOptimize(s, rep, final)
}

// finishOptimize journals an optimize session's terminal record. The
// session's seeding (warm, translated) is the one it activated with: a
// re-tune pass never reseeds it.
func (f *Fleet) finishOptimize(s *Session, rep *rpgcore.Report, final State) {
	v := s.view()
	ev := s.event("session-done")
	ev.State, ev.Report = final.String(), rep
	ev.Warm, ev.Translated = v.Warm, v.Translated
	ev.Attempt, ev.Retune = v.Attempt, v.Retunes
	f.finish(s, ev)
}

// applyStorePolicy decides what a finished session teaches the store: a
// cold tuned session commits its profile; a warm tuned session refreshes
// the entry, unless the reused distance regressed the miss-site retirement
// rate the entry promised, in which case it invalidates; a warm rolled-back
// session always invalidates (the cached profile actively hurt).
func (f *Fleet) applyStorePolicy(s *Session, key Key, rep *rpgcore.Report, warm bool, seed Entry, seedGen uint64) {
	if f.cfg.DisableStore {
		return
	}
	switch {
	case rep.Outcome == rpgcore.Tuned && warm:
		if seed.TunedRate > 0 && rep.BestRate < seed.TunedRate*(1-regressTolerance) {
			if f.store.Invalidate(key, seedGen) {
				f.journal.add(f.invalidateEvent(s, key, true))
			}
			return
		}
		entry := f.entryFrom(s, rep, seed.Candidates)
		f.store.Commit(key, entry)
		f.journal.add(f.commitEvent(s, key, entry, true))
	case rep.Outcome == rpgcore.Tuned:
		cands := make([]int, 0, len(rep.Sites))
		for _, site := range rep.Sites {
			cands = append(cands, site.DemandPC)
		}
		entry := f.entryFrom(s, rep, cands)
		f.store.Commit(key, entry)
		f.journal.add(f.commitEvent(s, key, entry, false))
	case rep.Outcome == rpgcore.RolledBack && warm:
		if f.store.Invalidate(key, seedGen) {
			f.journal.add(f.invalidateEvent(s, key, true))
		}
	}
}

// commitEvent builds a "store-commit" journal event. When persisting, the
// event additionally carries the store machine key and the committed entry
// so WAL replay can rebuild the store; in-memory journals omit both to
// stay byte-identical to the pre-WAL fleet.
func (f *Fleet) commitEvent(s *Session, key Key, e Entry, warm bool) Event {
	ev := Event{Session: s.ID, Type: "store-commit",
		Bench: key.Bench, Input: key.Input, Warm: warm}
	if f.persist != nil {
		ev.Machine = key.Machine
		ec := e
		ev.Entry = &ec
	}
	return ev
}

// invalidateEvent builds a "store-invalidate" journal event; the machine
// key rides along only when persisting (replay needs the full store key).
func (f *Fleet) invalidateEvent(s *Session, key Key, warm bool) Event {
	ev := Event{Session: s.ID, Type: "store-invalidate",
		Bench: key.Bench, Input: key.Input, Warm: warm}
	if f.persist != nil {
		ev.Machine = key.Machine
	}
	return ev
}

func (f *Fleet) entryFrom(s *Session, rep *rpgcore.Report, cands []int) Entry {
	return Entry{
		Func:         rep.FuncName,
		Candidates:   cands,
		Distance:     rep.FinalDistance,
		BaselineRate: rep.BaselineRate,
		TunedRate:    rep.BestRate,
		Session:      s.ID,
	}
}
