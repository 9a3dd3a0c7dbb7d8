package fleet

import (
	"time"

	"rpg2/internal/baselines"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/workloads"
)

// auxResult is what a non-optimize session computes: each kind fills the
// one field its accessor (Measurement, SweepResult, Candidates, Distance)
// serves.
type auxResult struct {
	meas     *rpgcore.Measurement
	sweep    *baselines.Sweep
	cands    []int
	distance int
}

// runAux runs one non-optimize session: build the workload from the cache,
// run job (the per-kind part: the kind's result over the built workload),
// then fail the session or store the result with the terminal bookkeeping.
func (f *Fleet) runAux(s *Session, started time.Time, m machine.Machine,
	job func(*Session, machine.Machine, *workloads.Workload) (auxResult, error)) {
	w, err := f.cfg.Builds.Build(s.Spec.Bench, s.Spec.Input, 1<<30)
	var r auxResult
	if err == nil {
		r, err = job(s, m, w)
	}
	if err != nil {
		f.failSession(s, started, err)
		return
	}
	f.settle(s, Done, 0, func() {
		s.meas, s.sweep, s.cands, s.distance = r.meas, r.sweep, r.cands, r.distance
		s.wall = time.Since(started)
	})
	ev := s.event("session-done")
	ev.State = Done.String()
	f.finish(s, ev)
}

// measure runs sess to the session's run budget and measures the trailing
// window (Spec.TailSeconds, default 1 s).
func (f *Fleet) measure(s *Session, sess *rpgcore.Session) (auxResult, error) {
	run, _ := f.runSeconds(s)
	tail := s.Spec.TailSeconds
	if tail <= 0 {
		tail = 1.0
	}
	meas, err := sess.MeasureToBudget(run, tail)
	return auxResult{meas: &meas}, err
}

// baselineJob measures the unmodified binary to the run budget.
func (f *Fleet) baselineJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	sess, err := rpgcore.NewSession(m, w)
	if err != nil {
		return auxResult{}, err
	}
	return f.measure(s, sess)
}

// staticJob measures a statically prefetched build at Spec.Distance,
// profiling candidates first when the spec does not carry them.
func (f *Fleet) staticJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	cands := s.Spec.Candidates
	if len(cands) == 0 {
		var err error
		if cands, err = baselines.ProfileCandidates(w, m, 2.0); err != nil {
			return auxResult{}, err
		}
	}
	pf, err := baselines.BuildPrefetched(w, cands, s.Spec.Distance)
	if err != nil {
		return auxResult{}, err
	}
	pcs := []int{w.WorkPC}
	sess, err := rpgcore.NewSessionBin(m, pf.Bin, w.Setup, append(pcs, pf.RW.BAT.Live(pf.F1Entry, pcs)...))
	if err != nil {
		return auxResult{}, err
	}
	return f.measure(s, sess)
}

// sweepJob runs an offline distance sweep over the cached workload.
func sweepJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	cfg := baselines.DefaultSweep()
	if s.Spec.Sweep != nil {
		cfg = *s.Spec.Sweep
	}
	sw, err := baselines.RunSweepWorkload(w, m, cfg)
	return auxResult{sweep: sw}, err
}

// profileJob collects PEBS candidate sites without optimizing.
func profileJob(s *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	secs := s.Spec.ProfileSeconds
	if secs == 0 {
		secs = 2.0
	}
	cands, err := baselines.ProfileCandidates(w, m, secs)
	return auxResult{cands: cands}, err
}

// aptgetJob derives the APT-GET scheme's analytic distance.
func aptgetJob(_ *Session, m machine.Machine, w *workloads.Workload) (auxResult, error) {
	d, err := baselines.APTGETDistanceWorkload(w, m)
	return auxResult{distance: d}, err
}
