package fleet

import (
	"strings"
	"testing"

	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
)

// TestWarmSessionsConvergeFaster is the profile store's core claim: after a
// cold session commits its profile, warm sessions on the same (benchmark,
// input, machine) are seeded and finish their search in fewer probes.
func TestWarmSessionsConvergeFaster(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()

	spec := SessionSpec{Bench: "is", Seed: 1}
	cold, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if got := cold.State(); got != Done {
		t.Fatalf("cold session state = %v (err %v)", got, cold.Err())
	}
	if cold.Warm() {
		t.Fatal("first session claims a store hit")
	}
	if cold.Report().Outcome != rpgcore.Tuned {
		t.Fatalf("cold outcome = %v; store has nothing to reuse", cold.Report().Outcome)
	}

	var warms []*Session
	for i := 0; i < 3; i++ {
		spec.Seed = int64(100 + i)
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		warms = append(warms, s)
	}
	f.Drain()

	for _, s := range warms {
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("warm session %d state = %v (err %v)", s.ID, s.State(), s.Err())
		}
		if !s.Warm() {
			t.Fatalf("session %d missed the store", s.ID)
		}
		if s.Report().Costs.PDEdits >= cold.Report().Costs.PDEdits {
			t.Fatalf("warm session %d used %d probes, cold used %d",
				s.ID, s.Report().Costs.PDEdits, cold.Report().Costs.PDEdits)
		}
	}
	c := f.Store().Counters()
	if c.Hits != 3 || c.Misses != 1 {
		t.Fatalf("store counters = %+v", c)
	}
}

// TestFleetStress drives 64 sessions through a 4-worker pool (run under
// -race by CI and the acceptance criteria): the bounded pool must lose no
// work, every session must reach a legal terminal state, and with repeated
// (bench, input) pairs the store must produce hits whose sessions probe
// less than the cold ones.
func TestFleetStress(t *testing.T) {
	const sessions = 64
	f := New(Config{Machine: machine.CascadeLake(), Workers: 4})
	defer f.Close()

	// Four distinct pairs that reliably tune: 16 sessions per pair, so
	// each pair is cold once and warm thereafter.
	pairs := []SessionSpec{
		{Bench: "is"},
		{Bench: "cg"},
		{Bench: "randacc"},
		{Bench: "bfs", Input: "soc-gamma"},
	}
	var specs []SessionSpec
	for i := 0; i < sessions; i++ {
		spec := pairs[i%len(pairs)]
		spec.Seed = int64(i + 1)
		specs = append(specs, spec)
	}
	got, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != sessions {
		t.Fatalf("admitted %d of %d sessions", len(got), sessions)
	}
	for _, s := range got {
		if !s.State().Terminal() {
			t.Fatalf("session %d not terminal: %v", s.ID, s.State())
		}
		if s.State() == Failed {
			t.Fatalf("session %d failed: %v", s.ID, s.Err())
		}
	}

	snap := f.Snapshot()
	if snap.Submitted != sessions || snap.Completed != sessions || snap.Failed != 0 {
		t.Fatalf("snapshot counts = %+v", snap)
	}
	if snap.Store.Hits == 0 {
		t.Fatal("no profile-store hits across repeated pairs")
	}
	if snap.WarmSessions == 0 || snap.ColdSessions == 0 {
		t.Fatalf("expected both cold and warm searched sessions: %+v", snap)
	}
	if snap.WarmProbesMean >= snap.ColdProbesMean {
		t.Fatalf("warm sessions did not converge faster: warm %.1f vs cold %.1f probes",
			snap.WarmProbesMean, snap.ColdProbesMean)
	}
	if snap.QueuePeak < sessions-4 {
		t.Fatalf("queue peak %d too small for %d sessions on 4 workers", snap.QueuePeak, sessions)
	}
	for _, line := range []string{"fleet snapshot", "profile store", "search probes"} {
		if !strings.Contains(snap.Render(), line) {
			t.Fatalf("snapshot render missing %q:\n%s", line, snap.Render())
		}
	}
}

// TestJournalLifecycle checks each session's journal on a live pool: one
// queued record, a terminal record last, states never moving backwards, and
// a report on session-done. The session is read through queuedFirst: its
// queued record can follow its own first events (DESIGN.md §11.4).
func TestJournalLifecycle(t *testing.T) {
	f := New(Config{Machine: machine.Haswell(), Workers: 2})
	defer f.Close()
	_, err := f.Run([]SessionSpec{
		{Bench: "cg", Seed: 3},
		{Bench: "pr", Input: "p2p-gnutella-like", Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	order := map[string]int{
		Queued.String(): 0, Profiling.String(): 1, Rewriting.String(): 2,
		Tuning.String(): 3, Done.String(): 4, RolledBack.String(): 4, Failed.String(): 4,
	}
	for _, s := range f.Sessions() {
		evs := queuedFirst(t, s.ID, f.Journal().SessionEvents(s.ID))
		if len(evs) < 3 {
			t.Fatalf("session %d journal too short: %+v", s.ID, evs)
		}
		last := evs[len(evs)-1]
		if last.Type != "session-done" && last.Type != "session-failed" {
			t.Fatalf("session %d last event %q", s.ID, last.Type)
		}
		if last.Type == "session-done" && last.Report == nil {
			t.Fatalf("session %d done event carries no report", s.ID)
		}
		prev := -1
		for _, e := range evs {
			if e.State == "" {
				continue
			}
			if order[e.State] < prev {
				t.Fatalf("session %d state went backwards: %+v", s.ID, evs)
			}
			prev = order[e.State]
		}
	}
	var sb strings.Builder
	if err := f.Journal().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"type":"session-done"`) ||
		!strings.Contains(sb.String(), `"Outcome"`) {
		t.Fatal("journal JSON missing session reports")
	}
}

// TestSubmitAfterClose: admission stops cleanly.
func TestSubmitAfterClose(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	f.Close()
	if _, err := f.Submit(SessionSpec{Bench: "is"}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v", err)
	}
}

// TestStoreInvalidationOnRollback: a warm session whose reused distance
// loses to the baseline (forced here by an impossible improvement bar)
// must drop the store entry so the next session re-profiles cold.
func TestStoreInvalidationOnRollback(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()
	spec := SessionSpec{Bench: "randacc", Seed: 9}
	if _, err := f.Submit(spec); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if f.Store().Len() != 1 {
		t.Fatalf("cold session committed %d entries", f.Store().Len())
	}

	// Raise the improvement bar so the warm session cannot beat the
	// baseline and rolls back, which must invalidate the entry.
	f.cfg.Session.MinImprovement = 1e9
	spec.Seed = 10
	s, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if s.State() != RolledBack {
		t.Fatalf("warm session under an impossible bar = %v", s.State())
	}
	if !s.Warm() {
		t.Fatal("second session was not warm")
	}
	if f.Store().Len() != 0 {
		t.Fatal("rollback did not invalidate the store entry")
	}
	if c := f.Store().Counters(); c.Invalidations != 1 {
		t.Fatalf("counters = %+v", c)
	}
}
