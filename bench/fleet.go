package main

import (
	"fmt"
	"sync"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/store"
	"rpg2/internal/workloads"
)

// fleetSizes fixes the fleet workloads' work: sessions, never seconds.
type fleetSizes struct {
	coldPerPair      int // fleet-cold: sessions per pair per round
	coldMinRounds    int
	serviceMinRounds int
	setups           int
}

func (r *run) fleetSizes() fleetSizes {
	if r.cfg.quick {
		return fleetSizes{coldPerPair: 1, coldMinRounds: 1, serviceMinRounds: 1, setups: 1}
	}
	// The quietest two thirds of the rounds are kept: 13 of 19 rounds of 16
	// sessions, 8 of 12 rounds of 32. Either way more than 200 latency
	// samples, so at least 10 lie beyond the 95th percentile.
	return fleetSizes{coldPerPair: 2, coldMinRounds: 19, serviceMinRounds: 12, setups: 3}
}

// coldSpecs is one fleet-cold round: every pair perPair times, repetition j
// of a pair always carrying controller seed j+1. The run's seed decides the
// order the sessions are submitted in, anew each round (reorder), and so
// which of them run side by side and which worker runs out of work first.
// Every round of every run is therefore the same simulated work — sampling
// controller seeds from the run's seed was measured to move a round's work
// by +-5% — and, cold sessions depending only on their spec, every session
// must end as golden.json says, whatever the seed.
func coldSpecs(perPair int) []fleet.SessionSpec {
	var specs []fleet.SessionSpec
	for rep := 0; rep < perPair; rep++ {
		for _, p := range fleetPairs() {
			specs = append(specs, fleet.SessionSpec{Bench: p.bench, Input: p.input, Seed: int64(rep + 1), Cold: true})
		}
	}
	return specs
}

// reorder shuffles a round's specs with the run's seeded generator. One
// fixed order per run would bake that order's luck into every round: on
// fleet-cold how evenly Submit-all happens to load the workers (+-6% of a
// round), on service-durable which sessions find the store warm (+-15%).
func reorder[T any](r *run, specs []T) {
	r.order.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
}

// prebuild constructs every pair's workload into a fresh cache: the
// fleet workloads' set-up cost, so no timed session pays for a graph build.
func prebuild() (*workloads.BuildCache, error) {
	builds := workloads.NewBuildCache()
	for _, p := range fleetPairs() {
		if _, err := builds.Build(p.bench, p.input, unbounded); err != nil {
			return nil, fmt.Errorf("build %v: %w", p, err)
		}
	}
	return builds, nil
}

// phaseClock stamps controller phases with host time through the
// controller's OnPhase hook, per spec (keyed by the Config the hook rides
// in). Only traced in-process rounds install it: it is the one way to split
// "insert" from "rewrite" and "detach" from "tune", which share a fleet
// state and so a journal event.
type phaseClock struct {
	mu    sync.Mutex
	stamp map[*rpgcore.Config]map[string]time.Time
}

func newPhaseClock() *phaseClock {
	return &phaseClock{stamp: map[*rpgcore.Config]map[string]time.Time{}}
}

// hook returns a controller configuration that stamps its own session.
func (pc *phaseClock) hook() *rpgcore.Config {
	cfg := &rpgcore.Config{}
	cfg.OnPhase = func(phase string, _ float64) {
		now := time.Now()
		pc.mu.Lock()
		if pc.stamp[cfg] == nil {
			pc.stamp[cfg] = map[string]time.Time{}
		}
		pc.stamp[cfg][phase] = now
		pc.mu.Unlock()
	}
	return cfg
}

// reset forgets the previous round's stamps.
func (pc *phaseClock) reset() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	clear(pc.stamp)
}

// insertDetach splits what the journal cannot: insert is the hook's
// "insert" to "tune"; detach is the hook's "detach" to the journal's
// terminal state event (epoch is when the journal opened), i.e. run-out,
// store policy and terminal bookkeeping. Each is empty for a session that
// never got there.
func (pc *phaseClock) insertDetach(s *fleet.Session, epoch time.Time, jt sessionTimes) (insertMS, detachMS []float64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st := pc.stamp[s.Spec.Config]
	if !st["insert"].IsZero() && !st["tune"].IsZero() {
		insertMS = append(insertMS, st["tune"].Sub(st["insert"]).Seconds()*1e3)
	}
	if !st["detach"].IsZero() && jt.done > 0 {
		// epoch is read a few microseconds before the journal opens, so an
		// interval with nothing in it can come out that much below zero.
		done := epoch.Add(time.Duration(jt.done * float64(time.Second)))
		detachMS = append(detachMS, max(0, done.Sub(st["detach"]).Seconds()*1e3))
	}
	return insertMS, detachMS
}

// sessionTimes is one session's wall-clock account: the journal's Wall
// stamps (seconds since the journal opened; 0 = the session never got
// there) and the number of events it journaled.
type sessionTimes struct {
	queued, admitted, profiling, rewriting, tuning, done float64
	events                                               int
}

// journalTimes reads one session's marks off the journal.
func journalTimes(j *fleet.Journal, id int) sessionTimes {
	var st sessionTimes
	for _, e := range j.SessionEvents(id) {
		st.events++
		switch {
		case e.Type == "queued":
			st.queued = e.Wall
		case e.Type == "admitted":
			st.admitted = e.Wall
		case e.Type != "state":
		case e.State == "profiling":
			st.profiling = e.Wall
		case e.State == "rewriting":
			st.rewriting = e.Wall
		case e.State == "tuning":
			st.tuning = e.Wall
		case e.State == "done" || e.State == "rolled-back":
			st.done = e.Wall
		}
	}
	return st
}

// gap is the interval from a mark to the first later mark the session
// reached; a session that ends early leaves its later phases zero.
func gap(from float64, to ...float64) float64 {
	if from == 0 {
		return 0
	}
	for _, t := range to {
		if t > 0 {
			return t - from
		}
	}
	return 0
}

func (t sessionTimes) queueWait() float64 { return gap(t.queued, t.admitted) }

// launch is dispatch to the first controller phase: store lookup, launch
// from the build cache, and the wait for the target's end-of-init signal.
func (t sessionTimes) launch() float64 { return gap(t.admitted, t.profiling, t.done) }

func (t sessionTimes) profile() float64 { return gap(t.profiling, t.rewriting, t.tuning, t.done) }

// rewrite spans BOLT and code insertion: both are fleet state "rewriting".
func (t sessionTimes) rewrite() float64 { return gap(t.rewriting, t.tuning, t.done) }

// tune spans the search, detach, run-out and store policy: fleet state
// "tuning" up to the terminal state.
func (t sessionTimes) tune() float64 { return gap(t.tuning, t.done) }

func (t sessionTimes) phases() float64 { return t.profile() + t.rewrite() + t.tune() }

// drainRound is one in-process round: Submit all, Drain.
type drainRound struct {
	wall     time.Duration
	sessions []*fleet.Session
	submitUS []float64
}

func submitAndDrain(f *fleet.Fleet, specs []fleet.SessionSpec) (drainRound, error) {
	var cr drainRound
	t0 := time.Now()
	for _, spec := range specs {
		ts := time.Now()
		s, err := f.Submit(spec)
		if err != nil {
			return cr, fmt.Errorf("submit %s/%s: %w", spec.Bench, spec.Input, err)
		}
		cr.submitUS = append(cr.submitUS, float64(time.Since(ts).Nanoseconds())/1e3)
		cr.sessions = append(cr.sessions, s)
	}
	f.Drain()
	cr.wall = time.Since(t0)
	return cr, nil
}

// outcomeOf distils a finished session for the oracle. why is non-empty for
// a session that errored or never reached a good terminal state: fail
// closed.
func outcomeOf(s *fleet.Session) (g sessionGolden, why string) {
	g = sessionGolden{Bench: s.Spec.Bench, Input: s.Spec.Input, Seed: s.Spec.Seed}
	st := s.State()
	switch {
	case s.Err() != nil:
		return g, fmt.Sprintf("session %d errored: %v", s.ID, s.Err())
	case !st.Terminal():
		return g, fmt.Sprintf("session %d is %v after Drain", s.ID, st)
	case st == fleet.Failed || st == fleet.Degraded:
		return g, fmt.Sprintf("session %d ended %v", s.ID, st)
	case s.Report() == nil:
		return g, fmt.Sprintf("session %d has no report", s.ID)
	}
	rep := s.Report()
	g.Outcome, g.Distance, g.Probes = rep.Outcome.String(), rep.FinalDistance, rep.Costs.PDEdits
	return g, ""
}

// checkSessions counts a round's sessions as attempted operations and
// fails those that errored or ended other than golden.json says.
func (r *run) checkSessions(sessions []*fleet.Session, golden map[sessionKey]sessionGolden) []sessionGolden {
	got := make([]sessionGolden, len(sessions))
	for i, s := range sessions {
		r.op(1)
		g, why := outcomeOf(s)
		got[i] = g
		if why != "" {
			r.fail("%s", why)
			continue
		}
		if golden == nil {
			continue
		}
		if want, ok := golden[g.key()]; !ok || g != want {
			r.fail("session %d: got %+v, golden.json has %+v", s.ID, g, want)
		}
	}
	return got
}

// goldenRound runs one untimed round; -update-golden records it.
func (r *run) goldenRound() ([]sessionGolden, error) {
	builds, err := prebuild()
	if err != nil {
		return nil, err
	}
	f := fleet.New(fleet.Config{Machine: machine.CascadeLake(), Workers: r.cfg.clients, Builds: builds})
	defer f.Close()
	cr, err := submitAndDrain(f, coldSpecs(r.fleetSizes().coldPerPair))
	if err != nil {
		return nil, err
	}
	got := r.checkSessions(cr.sessions, nil)
	if r.failed > 0 {
		return nil, fmt.Errorf("golden round failed: %v", r.failures)
	}
	return got, nil
}

// fleetPass is the statistics of one pass of rounds on either fleet workload.
type fleetPass struct {
	rounds   int
	costRef  []float64   // per round: wall / sessions / ref, Mref
	perSec   []float64   // per round: sessions per host second
	latRef   [][]float64 // per round, per session: latency in Mref
	latMS    []float64   // per session: latency in host ms
	refNS    []float64   // per round: the mean of the reference runs around it
	wallNS   float64     // summed round wall
	sessions int
}

func (p *fleetPass) addRound(wall time.Duration, latSeconds []float64, ref float64) {
	n := len(latSeconds)
	p.rounds++
	p.sessions += n
	p.wallNS += float64(wall.Nanoseconds())
	p.refNS = append(p.refNS, ref)
	p.costRef = append(p.costRef, float64(wall.Nanoseconds())/float64(n)/ref/1e6)
	p.perSec = append(p.perSec, float64(n)/wall.Seconds())
	lat := make([]float64, n)
	for i, l := range latSeconds {
		lat[i] = l * 1e9 / ref / 1e6
		p.latMS = append(p.latMS, l*1e3)
	}
	p.latRef = append(p.latRef, lat)
}

// endToEnd emits the untraced pass's metrics, over its quietest rounds.
func (r *run) endToEnd(p *fleetPass, setupS []float64) error {
	quiet := quietest(p.costRef)
	var latency []float64
	for _, i := range quiet {
		latency = append(latency, p.latRef[i]...)
	}
	p95, err := r.pctl(latency, 0.95)
	if err != nil {
		return fmt.Errorf("latency_p95_ref: %w", err)
	}
	r.samples["rounds"] = p.rounds
	r.setN("setup_s", median(setupS), len(setupS))
	r.setN("cost_ref", median(pick(p.costRef, quiet)), len(quiet))
	r.setN("latency_p50_ref", median(latency), len(latency))
	r.setN("latency_p95_ref", p95, len(latency))
	r.set("peak_rss_mb", peakRSSMB())
	return nil
}

// coldPass runs rounds of the same spec list until minRounds and deadline
// are both met, bracketing each with reference runs.
func (r *run) coldPass(f *fleet.Fleet, specs []fleet.SessionSpec, minRounds int, deadline time.Time, golden map[sessionKey]sessionGolden) (fleetPass, []drainRound, error) {
	var p fleetPass
	var rounds []drainRound
	refBefore := r.ref.run(refOps)
	for p.rounds < minRounds || time.Now().Before(deadline) {
		reorder(r, specs)
		cr, err := submitAndDrain(f, specs)
		if err != nil {
			return p, rounds, err
		}
		refAfter := r.ref.run(refOps)
		r.checkSessions(cr.sessions, golden)
		lat := make([]float64, len(cr.sessions))
		for i, s := range cr.sessions {
			lat[i] = s.Wall().Seconds()
		}
		p.addRound(cr.wall, lat, (refBefore+refAfter)/2)
		refBefore = refAfter
		rounds = append(rounds, cr)
	}
	return p, rounds, nil
}

func runFleetCold(r *run) error {
	m := machine.CascadeLake()
	sz := r.fleetSizes()
	specs := coldSpecs(sz.coldPerPair)
	g, err := loadGolden()
	if err != nil {
		return err
	}
	golden := g.sessions()

	setups := sz.setups
	// The traced pass hands the fleet a store behind a timing decorator:
	// cold sessions must never reach it, and the decorator proves it.
	var ts *timedStore
	if r.cfg.trace {
		setups = 1
		ts = &timedStore{Store: store.NewMemory(store.Config{}), tr: r.tr}
	}
	var f *fleet.Fleet
	var epoch time.Time // when f's journal opened, to the microsecond
	setupS, err := r.setUps(setups, func() { f.Close(); f = nil }, func() error {
		builds, err := prebuild()
		if err != nil {
			return err
		}
		cfg := fleet.Config{Machine: m, Workers: r.cfg.clients, Builds: builds}
		if ts != nil {
			cfg.Store = ts
		}
		epoch = time.Now()
		f = fleet.New(cfg)
		return nil
	})
	if err != nil {
		return err
	}
	defer f.Close()

	if !r.cfg.trace {
		deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
		p, _, err := r.coldPass(f, specs, sz.coldMinRounds, deadline, golden)
		if err != nil {
			return err
		}
		return r.endToEnd(&p, setupS)
	}

	if err := r.ladder(); err != nil {
		return err
	}
	rounds := r.tracedRounds(sz.coldMinRounds, len(specs))
	u0 := readHostUsage()
	plain, plainRounds, err := r.coldPass(f, specs, rounds, time.Time{}, golden)
	if err != nil {
		return err
	}
	u1 := readHostUsage()

	// Traced rounds: the same specs, each carrying the phase-stamping hook.
	pc := newPhaseClock()
	hooked := append([]fleet.SessionSpec(nil), specs...)
	for i := range hooked {
		hooked[i].Config = pc.hook()
	}
	var tracedWall float64
	var insertMS, detachMS []float64
	for i := 0; i < rounds; i++ {
		pc.reset()
		reorder(r, hooked)
		root := r.tr.open("fleet.round", 0, -1)
		cr, err := submitAndDrain(f, hooked)
		r.tr.close(root)
		if err != nil {
			return err
		}
		tracedWall += float64(cr.wall.Nanoseconds())
		r.checkSessions(cr.sessions, golden)
		for _, s := range cr.sessions {
			jt := journalTimes(f.Journal(), s.ID)
			r.sessionSpans(root, s.ID, epoch, jt)
			ins, det := pc.insertDetach(s, epoch, jt)
			insertMS = append(insertMS, ins...)
			detachMS = append(detachMS, det...)
		}
	}

	r.hostMetrics(u0, u1, plain.sessions, plain.refNS)
	r.setN("host.sessions_per_s", median(plain.perSec), plain.rounds)
	r.zero("host.ns_per_instr")
	r.zero(simLayerMetrics...)
	r.zero(serviceLayerMetrics...)
	var all []*fleet.Session
	var submitUS []float64
	for _, cr := range plainRounds {
		all = append(all, cr.sessions...)
		submitUS = append(submitUS, cr.submitUS...)
	}
	explained, err := r.sessionLayers(f, all, plain.latMS)
	if err != nil {
		return err
	}
	r.setN("fleet.submit_us", median(submitUS), len(submitUS))
	r.setN("rpg2.insert_ms", median(insertMS), len(insertMS))
	r.setN("rpg2.detach_ms", median(detachMS), len(detachMS))
	r.storeLayers(timedStoreUse{}, ts.use(), plain.sessions+rounds*len(specs))
	r.set("trace.overhead_share", (tracedWall-plain.wallNS)/plain.wallNS)
	// A cold in-process session is its journal phases plus launch and
	// init-wait; the phases are what the layers below account for.
	r.set("trace.explained_share", explained)
	r.set("trace.spans", float64(r.tr.count()))
	return nil
}

// tracedRounds is how many rounds each half of a traced pass runs: a
// quarter of the untraced pass's, but enough sessions that ten lie beyond
// the 90th percentile of their wall times.
func (r *run) tracedRounds(minRounds, perRound int) int {
	if r.cfg.quick {
		return 1
	}
	return max(minRounds/4, (10*minBeyond+perRound-1)/perRound)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sessionSpans records one session's journal intervals as spans under
// parent; epoch is when the journal opened.
func (r *run) sessionSpans(parent, id int, epoch time.Time, jt sessionTimes) {
	if r.tr == nil || jt.queued == 0 || jt.done == 0 {
		return
	}
	at := func(wall float64) time.Time { return epoch.Add(time.Duration(wall * float64(time.Second))) }
	sess := r.tr.add("fleet.session", parent, id, at(jt.queued), at(jt.done))
	from := jt.queued
	for _, ph := range []struct {
		name string
		secs float64
	}{
		{"admission.wait", jt.queueWait()}, {"proc.launch+init", jt.launch()}, {"rpg2.profile", jt.profile()},
		{"rpg2.rewrite+insert", jt.rewrite()}, {"rpg2.tune+detach", jt.tune()},
	} {
		if ph.secs > 0 {
			r.tr.add(ph.name, sess, id, at(from), at(from+ph.secs))
		}
		from += ph.secs
	}
}

// sessionLayerMetrics are the per-layer metrics only a workload that runs
// fleet sessions can produce; the interpreter workloads report them as 0.
var sessionLayerMetrics = []string{
	"rpg2.profile_ms", "rpg2.rewrite_ms", "rpg2.insert_ms", "rpg2.tune_ms", "rpg2.detach_ms",
	"rpg2.probes_per_session", "rpg2.tuned_share", "rpg2.rollback_share", "rpg2.not_activated_share",
	"rpg2.sim_seconds_per_session",
	"admission.queue_wait_ms_p50", "admission.retries", "admission.quota_stalls",
	"fleet.submit_us", "fleet.session_wall_ms_p50", "fleet.session_wall_ms_p90", "fleet.events_per_session",
	"fleet.unattributed_ms",
	"store.ops_per_session", "store.hit_ratio", "store.time_per_session_us",
}

// simLayerMetrics are the simulated-hardware counts only the interpreter
// workloads can read (a fleet keeps its processes to itself).
var simLayerMetrics = []string{
	"cache.demand_accesses", "cache.l1_hits", "cache.l2_hits", "cache.l3_hits", "cache.mshr_hits",
	"cache.llc_misses", "cache.dram_fills", "cache.hw_prefetches", "cpu.instructions", "cpu.cycles",
}

// serviceLayerMetrics exist only where there is a network and a disk.
var serviceLayerMetrics = []string{
	"stored.handler_us_p50", "fleetd.handler_us_p50", "fleetd.submit_rtt_us", "fleetd.status_rtt_us",
	"fleetd.result_rtt_us", "fleetd.metrics_rtt_us", "fleetclient.polls_per_session", "fleetclient.retries",
	"wal.records_per_session", "fleet.session_ms_inproc_warm", "fleet.recover_ms", "service.overhead_share",
}

// sessionLayers derives the controller, admission and fleet metrics of a
// pass from the fleet's journal, reports and snapshot. wallMS is the
// per-session latency the workload's clients saw. It returns the median
// share of Session.Wall the journal's phases account for.
func (r *run) sessionLayers(f *fleet.Fleet, sessions []*fleet.Session, wallMS []float64) (float64, error) {
	var profile, rewrite, tune, wait, unattr, share []float64
	var probes, simSeconds float64
	outcomes := map[string]int{}
	events := 0
	for _, s := range sessions {
		jt := journalTimes(f.Journal(), s.ID)
		events += jt.events
		wait = append(wait, jt.queueWait()*1e3)
		profile = append(profile, jt.profile()*1e3)
		rewrite = append(rewrite, jt.rewrite()*1e3)
		tune = append(tune, jt.tune()*1e3)
		wall := s.Wall().Seconds()
		unattr = append(unattr, (wall-jt.phases())*1e3)
		share = append(share, ratio(jt.phases(), wall))
		if rep := s.Report(); rep != nil {
			probes += float64(rep.Costs.PDEdits)
			simSeconds += rep.Costs.ExecSeconds
			outcomes[rep.Outcome.String()]++
		}
	}
	n := float64(len(sessions))
	p90, err := r.pctl(wallMS, 0.90)
	if err != nil {
		return 0, fmt.Errorf("fleet.session_wall_ms_p90: %w", err)
	}
	r.setN("rpg2.profile_ms", median(profile), len(profile))
	r.setN("rpg2.rewrite_ms", median(rewrite), len(rewrite))
	r.setN("rpg2.tune_ms", median(tune), len(tune))
	r.set("rpg2.probes_per_session", probes/n)
	r.set("rpg2.tuned_share", float64(outcomes["tuned"])/n)
	r.set("rpg2.rollback_share", float64(outcomes["rolled-back"])/n)
	r.set("rpg2.not_activated_share", float64(outcomes["not-activated"])/n)
	r.set("rpg2.sim_seconds_per_session", simSeconds/n)
	r.setN("admission.queue_wait_ms_p50", median(wait), len(wait))
	snap := f.Snapshot()
	r.set("admission.retries", float64(snap.Retries))
	r.set("admission.quota_stalls", float64(snap.QuotaStalls))
	r.setN("fleet.session_wall_ms_p50", median(wallMS), len(wallMS))
	r.setN("fleet.session_wall_ms_p90", p90, len(wallMS))
	r.set("fleet.events_per_session", float64(events)/n)
	r.setN("fleet.unattributed_ms", median(unattr), len(unattr))
	return median(share), nil
}
