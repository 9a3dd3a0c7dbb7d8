package fleet

import (
	"testing"

	"rpg2/internal/baselines"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/workloads"
)

// The profile store must key on the session's *effective* machine: a
// profile committed on Cascade Lake must never warm-start the same bench
// on Haswell (regression test for keying on the fleet-wide machine).
func TestStoreKeyUsesEffectiveMachine(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1,
		Builds: workloads.NewBuildCache()})
	defer f.Close()

	cold, err := f.Submit(SessionSpec{Bench: "is", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if cold.Report() == nil || cold.Report().Outcome != rpgcore.Tuned {
		t.Fatalf("cold session did not tune (state %v, err %v)", cold.State(), cold.Err())
	}
	if f.Store().Len() != 1 {
		t.Fatalf("store has %d entries after cold commit", f.Store().Len())
	}

	hw := machine.Haswell()
	s, err := f.Submit(SessionSpec{Bench: "is", Seed: 2, Machine: &hw})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if s.State() == Failed {
		t.Fatalf("haswell session failed: %v", s.Err())
	}
	if s.Warm() {
		t.Fatal("haswell session warm-started from a cascadelake profile")
	}
	if s.MachineName() != "haswell" {
		t.Fatalf("MachineName() = %q", s.MachineName())
	}
	// Same bench back on the fleet machine is warm.
	s2, err := f.Submit(SessionSpec{Bench: "is", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if !s2.Warm() {
		t.Fatal("cascadelake session missed its own machine's profile")
	}
}

// A second session for the same (bench, input) must perform no graph
// rebuild: the build cache's counter is the acceptance criterion.
func TestBuildCacheAmortisesSessions(t *testing.T) {
	builds := workloads.NewBuildCache()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1, Builds: builds})
	defer f.Close()
	if _, err := f.Run([]SessionSpec{
		{Bench: "randacc", Seed: 1},
		{Bench: "randacc", Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if got := builds.Builds(); got != 1 {
		t.Fatalf("Builds() = %d after two sessions on one pair, want 1", got)
	}
	if got := builds.Hits(); got != 1 {
		t.Fatalf("Hits() = %d, want 1", got)
	}
	snap := f.Snapshot()
	if snap.BuildConstructs != 1 || snap.BuildHits != 1 {
		t.Fatalf("snapshot build counters = %d constructs, %d hits",
			snap.BuildConstructs, snap.BuildHits)
	}
}

// A Cold spec bypasses the store in both directions: no lookup, no commit.
func TestColdSessionsBypassStore(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1,
		Builds: workloads.NewBuildCache()})
	defer f.Close()
	got, err := f.Run([]SessionSpec{
		{Bench: "is", Seed: 1, Cold: true},
		{Bench: "is", Seed: 2, Cold: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s.Warm() {
			t.Fatalf("cold session %d reported warm", s.ID)
		}
		if s.Report() == nil || s.Report().Outcome != rpgcore.Tuned {
			t.Fatalf("cold session %d outcome (err %v)", s.ID, s.Err())
		}
	}
	if c := f.Store().Counters(); c != (StoreCounters{}) {
		t.Fatalf("cold sessions touched the store: %+v", c)
	}
	if f.Store().Len() != 0 {
		t.Fatal("cold session committed a store entry")
	}
}

// The auxiliary job kinds run the reference schemes through the same
// queue, lifecycle, journal, and metrics as optimize sessions.
func TestAuxJobKinds(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 2,
		Builds: workloads.NewBuildCache()})
	defer f.Close()

	sweep := SessionSpec{Bench: "is", Kind: SweepJob}
	cfg := baselines.SweepConfig{
		Distances:     []int{4, 16, 64},
		WarmSeconds:   0.1,
		WindowSeconds: 0.25,
		Seed:          1,
	}
	sweep.Sweep = &cfg
	specs := []SessionSpec{
		{Bench: "is", Kind: ProfileJob},
		{Bench: "is", Kind: BaselineJob, RunSeconds: 6},
		sweep,
		{Bench: "is", Kind: APTGETJob},
	}
	got, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s.State() != Done {
			t.Fatalf("%s session state = %v (err %v)", s.Spec.Kind, s.State(), s.Err())
		}
	}
	prof, base, sw, apt := got[0], got[1], got[2], got[3]
	cands := prof.Candidates()
	if len(cands) == 0 {
		t.Fatal("profile job found no candidates")
	}
	if m := base.Measurement(); m == nil || m.Work == 0 {
		t.Fatalf("baseline job measurement = %+v", m)
	}
	if res := sw.SweepResult(); res == nil || len(res.Speedup) != len(cfg.Distances) {
		t.Fatalf("sweep job result = %+v", sw.SweepResult())
	}
	if d := apt.Distance(); d < 1 || d > 100 {
		t.Fatalf("apt-get distance = %d", d)
	}

	// A static job reusing the profiled candidates.
	st, err := f.Submit(SessionSpec{Bench: "is", Kind: StaticJob,
		Distance: 16, Candidates: cands, RunSeconds: 6})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if st.State() != Done {
		t.Fatalf("static session state = %v (err %v)", st.State(), st.Err())
	}
	if m := st.Measurement(); m == nil || m.Work == 0 {
		t.Fatalf("static job measurement = %+v", m)
	}

	snap := f.Snapshot()
	for _, k := range []string{"profile", "baseline", "sweep", "apt-get", "static"} {
		if snap.Kinds[k] != 1 {
			t.Fatalf("snapshot kinds = %+v, want one %q", snap.Kinds, k)
		}
	}
	// Aux jobs carry no controller outcome, so activation stays undefined
	// rather than being diluted.
	if snap.ActivationRate != 0 {
		t.Fatalf("activation rate %f with no optimize sessions", snap.ActivationRate)
	}
	for _, s := range got {
		// The submitter's queued record races the worker's (DESIGN.md §11.4).
		evs := queuedFirst(t, s.ID, f.Journal().SessionEvents(s.ID))
		if evs[0].Type != "queued" || evs[0].Kind != s.Spec.Kind.String() {
			t.Fatalf("session %d first event %+v", s.ID, evs[0])
		}
		last := evs[len(evs)-1]
		if last.Type != "session-done" || last.Kind != s.Spec.Kind.String() {
			t.Fatalf("session %d last event %+v", s.ID, last)
		}
	}
}

// A frozen store serves lookups without consuming reuse budget and
// ignores commits and invalidations.
func TestStoreFreeze(t *testing.T) {
	st := NewStore(StoreConfig{MaxReuse: 2})
	k := Key{Bench: "is", Machine: "cascadelake"}
	st.Commit(k, Entry{Func: "kernel", Distance: 8})
	st.Freeze()
	for i := 0; i < 10; i++ { // far past MaxReuse: no staleness while frozen
		if _, _, ok := st.Lookup(k); !ok {
			t.Fatalf("frozen lookup %d missed", i)
		}
	}
	if gen := st.Commit(k, Entry{Distance: 9}); gen != 0 {
		t.Fatal("frozen Commit was not a no-op")
	}
	e, gen, _ := st.Lookup(k)
	if e.Distance != 8 {
		t.Fatalf("frozen store mutated: distance %d", e.Distance)
	}
	if st.Invalidate(k, gen) {
		t.Fatal("frozen Invalidate dropped an entry")
	}
	st.Thaw()
	// Thawed: the reuse budget resumes from where it was.
	if _, _, ok := st.Lookup(k); !ok {
		t.Fatal("thawed lookup missed")
	}
}
