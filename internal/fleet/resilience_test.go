package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
)

// stressSpecs builds n specs cycling over pairs that reliably activate,
// seeding session i with base+i.
func stressSpecs(n int, base int64) []SessionSpec {
	pairs := []SessionSpec{
		{Bench: "is"},
		{Bench: "cg"},
		{Bench: "randacc"},
		{Bench: "bfs", Input: "soc-gamma"},
	}
	specs := make([]SessionSpec, n)
	for i := range specs {
		specs[i] = pairs[i%len(pairs)]
		specs[i].Seed = base + int64(i)
	}
	return specs
}

// TestFaultInjectionResilience is the issue's acceptance scenario: with a
// seeded injector failing ~20% of controller stages, every session must
// still reach a terminal state, none may be lost, and a fleet with a retry
// budget must convert at least as many sessions to success as the same
// fleet without one.
func TestFaultInjectionResilience(t *testing.T) {
	const sessions = 32
	countDone := func(ss []*Session) int {
		n := 0
		for _, s := range ss {
			if st := s.State(); st == Done || st == RolledBack {
				n++
			}
		}
		return n
	}

	// Baseline: faults, no retry lane.
	base := New(Config{
		Machine: machine.CascadeLake(), Workers: 4,
		Faults: faults.New(faults.Config{Seed: 7, Rate: 0.2}),
	})
	baseSessions, err := base.Run(stressSpecs(sessions, 1))
	if err != nil {
		t.Fatal(err)
	}
	base.Close()
	baseDone := countDone(baseSessions)
	if baseDone == sessions {
		t.Fatal("20% fault rate failed nothing; the baseline proves nothing")
	}

	// Same specs, same injector seed, plus a retry budget and quotas.
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 4,
		Faults:     faults.New(faults.Config{Seed: 7, Rate: 0.2}),
		MaxRetries: 3, Quota: 2,
	})
	defer f.Close()
	got, err := f.Run(stressSpecs(sessions, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != sessions {
		t.Fatalf("lost sessions: admitted %d of %d", len(got), sessions)
	}
	for _, s := range got {
		if !s.State().Terminal() {
			t.Fatalf("session %d not terminal under faults: %v", s.ID, s.State())
		}
		if s.State() == Failed && !faults.Injected(s.Err()) {
			t.Fatalf("session %d failed organically: %v", s.ID, s.Err())
		}
	}

	snap := f.Snapshot()
	if snap.Submitted != sessions || snap.Completed != sessions {
		t.Fatalf("snapshot lost sessions: %+v", snap)
	}
	if snap.Retries == 0 {
		t.Fatal("faults fired but the retry lane never did")
	}
	if snap.BackoffWaitSecs <= 0 {
		t.Fatalf("retries consumed no virtual backoff: %+v", snap)
	}
	if retried := countDone(got); retried < baseDone {
		t.Fatalf("retry fleet finished %d sessions, no-retry baseline %d", retried, baseDone)
	}

	// The resilience counters must survive into the rendered snapshot.
	text := snap.Render()
	if want := fmt.Sprintf("%d retries", snap.Retries); !containsStr(text, want) {
		t.Fatalf("rendered snapshot missing %q:\n%s", want, text)
	}
	if !containsStr(text, "quota stalls") || !containsStr(text, "breaker trips") {
		t.Fatalf("rendered snapshot missing resilience counters:\n%s", text)
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestQuotaBoundViaJournal replays the journal and asserts the admission
// invariant directly: at no point are more than Quota attempts of one
// (bench, input) pair between their "admitted" event and the event that
// ends the attempt.
func TestQuotaBoundViaJournal(t *testing.T) {
	const quota = 2
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 8,
		Quota:      quota,
		Faults:     faults.New(faults.Config{Seed: 3, Rate: 0.15}),
		MaxRetries: 2,
	})
	defer f.Close()
	// Two pairs only, so eight workers must contend for 2×quota slots.
	specs := make([]SessionSpec, 24)
	for i := range specs {
		specs[i] = SessionSpec{Bench: "is", Seed: int64(i + 1)}
		if i%2 == 1 {
			specs[i] = SessionSpec{Bench: "cg", Seed: int64(i + 1)}
		}
	}
	if _, err := f.Run(specs); err != nil {
		t.Fatal(err)
	}

	type key struct{ bench, input string }
	inflight := make(map[key]int)
	running := make(map[int]bool) // session currently between admitted and attempt end
	for _, e := range f.Journal().Events() {
		k := key{e.Bench, e.Input}
		switch e.Type {
		case "admitted":
			inflight[k]++
			running[e.Session] = true
			if inflight[k] > quota {
				t.Fatalf("journal shows %d in-flight attempts for %v (quota %d) at seq %d",
					inflight[k], k, quota, e.Seq)
			}
		case "session-done", "session-degraded", "session-failed", "retry-scheduled":
			// The first attempt-ending event releases the slot; a
			// "retry-scheduled" after "session-failed" must not double-free.
			if running[e.Session] {
				inflight[k]--
				running[e.Session] = false
			}
		}
	}
	if snap := f.Snapshot(); snap.QuotaStalls == 0 {
		t.Fatalf("8 workers over 2 quota-%d pairs never stalled: %+v", quota, snap)
	}
}

// TestBreakerDegradesSessions forces consecutive rollbacks with an
// impossible improvement bar: the pair's breaker must trip after the
// threshold and park the remaining sessions as Degraded without running
// them.
func TestBreakerDegradesSessions(t *testing.T) {
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 1, // serial, so order is exact
		BreakerThreshold: 2,
		Session:          rpgcore.Config{MinImprovement: 1e9},
	})
	defer f.Close()
	specs := make([]SessionSpec, 6)
	for i := range specs {
		specs[i] = SessionSpec{Bench: "randacc", Seed: int64(i + 1)}
	}
	got, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}

	for i, s := range got[:2] {
		if s.State() != RolledBack {
			t.Fatalf("session %d = %v, want RolledBack (err %v)", i, s.State(), s.Err())
		}
	}
	for i, s := range got[2:] {
		if s.State() != Degraded {
			t.Fatalf("session %d = %v, want Degraded after the breaker tripped", i+2, s.State())
		}
		if s.Report() != nil {
			t.Fatalf("degraded session %d ran the controller", i+2)
		}
	}

	snap := f.Snapshot()
	if snap.BreakerTrips != 1 || snap.BreakersOpen != 1 || snap.Degraded != 4 {
		t.Fatalf("breaker counters: trips=%d open=%d degraded=%d",
			snap.BreakerTrips, snap.BreakersOpen, snap.Degraded)
	}
	opened := 0
	for _, e := range f.Journal().Events() {
		if e.Type == "breaker-open" {
			opened++
		}
	}
	if opened != 1 {
		t.Fatalf("journal records %d breaker-open events, want 1", opened)
	}
}

// TestPriorityOrdersDispatch holds the single worker hostage with a
// blocking fault hook, submits a low-priority batch then a high-priority
// straggler, and asserts the straggler is admitted first once the worker
// frees up.
func TestPriorityOrdersDispatch(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	blockOnce := rpgcore.Config{FaultHook: func(stage string) error {
		if stage == "profile" {
			select {
			case <-entered: // already signalled: later attempts pass through
			default:
				close(entered)
				<-release
			}
		}
		return nil
	}}

	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()
	if _, err := f.Submit(SessionSpec{Bench: "is", Seed: 1, Config: &blockOnce}); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is now parked inside session 0

	low, err := f.Submit(SessionSpec{Bench: "cg", Seed: 2, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := f.Submit(SessionSpec{Bench: "randacc", Seed: 3, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	f.Drain()

	var order []int
	for _, e := range f.Journal().Events() {
		if e.Type == "admitted" {
			order = append(order, e.Session)
		}
	}
	want := []int{0, high.ID, low.ID}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("admission order %v, want %v", order, want)
	}
}

// TestCancelQueued is the graceful-shutdown path: with the only worker
// blocked, queued sessions are cancelled with ErrCanceled while the
// in-flight session finishes normally.
func TestCancelQueued(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	block := rpgcore.Config{FaultHook: func(stage string) error {
		if stage == "profile" {
			select {
			case <-entered:
			default:
				close(entered)
				<-release
			}
		}
		return nil
	}}

	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()
	running, err := f.Submit(SessionSpec{Bench: "is", Seed: 1, Config: &block})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	var queued []*Session
	for i := 0; i < 4; i++ {
		s, err := f.Submit(SessionSpec{Bench: "cg", Seed: int64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, s)
	}

	if n := f.CancelQueued(); n != 4 {
		t.Fatalf("cancelled %d sessions, want 4", n)
	}
	close(release)
	f.Drain()

	if running.State() != Done {
		t.Fatalf("in-flight session = %v (err %v), want Done", running.State(), running.Err())
	}
	for _, s := range queued {
		if s.State() != Failed || !errors.Is(s.Err(), ErrCanceled) {
			t.Fatalf("cancelled session %d: state %v err %v", s.ID, s.State(), s.Err())
		}
	}
	if snap := f.Snapshot(); snap.Completed != 5 {
		t.Fatalf("snapshot lost sessions after cancellation: %+v", snap)
	}
}

// TestDrainAndCloseIdempotent: Drain and Close are safe to call repeatedly
// and in any order; Submit after Close reports the typed sentinel.
func TestDrainAndCloseIdempotent(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 2})
	if _, err := f.Run(stressSpecs(4, 1)); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	f.Drain()
	f.Close()
	f.Close()
	f.Drain() // after Close: the pool is empty, must not hang
	if _, err := f.Submit(SessionSpec{Bench: "is"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// queuedFirst returns one session's journal events with its "queued" record
// at the front. Submit publishes a session to the workers before it
// journals that record (DESIGN.md §11.4), so under a live pool the session's
// own "admitted" — and whatever its worker journals before the submitter
// gets the journal lock — can come first. Which side wins is a race, not a
// property: the audits that run with Submit racing dispatch read the
// session through this and keep every other event in journal order.
func queuedFirst(t *testing.T, id int, evs []Event) []Event {
	t.Helper()
	out := make([]Event, 0, len(evs))
	var queued []Event
	for _, e := range evs {
		if e.Type == "queued" {
			queued = append(queued, e)
		} else {
			out = append(out, e)
		}
	}
	if len(queued) != 1 {
		t.Fatalf("session %d: %d queued records, want exactly 1: %+v", id, len(queued), evs)
	}
	return append(queued, out...)
}

// TestJournalEventOrdering is the issue's lifecycle audit, run with faults
// and retries so the attempt machinery is exercised: 64 concurrent
// sessions on 8 workers, then a full journal replay asserting every
// per-session event sequence is legal and attempt-aware.
func TestJournalEventOrdering(t *testing.T) {
	const sessions = 64
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 8,
		Faults:     faults.New(faults.Config{Seed: 11, Rate: 0.2}),
		MaxRetries: 2, Quota: 3, BreakerThreshold: 4,
	})
	defer f.Close()
	if _, err := f.Run(stressSpecs(sessions, 100)); err != nil {
		t.Fatal(err)
	}

	stateByName := map[string]State{}
	for st := Queued; st <= Degraded; st++ {
		stateByName[st.String()] = st
	}
	legal := func(from, to State) bool {
		for _, n := range legalNext[from] {
			if n == to {
				return true
			}
		}
		return false
	}

	for _, s := range f.Sessions() {
		journaled := f.Journal().SessionEvents(s.ID)
		lastWall := -1.0
		for i, e := range journaled {
			if e.Wall < lastWall {
				t.Fatalf("session %d: wall time went backwards at event %d", s.ID, i)
			}
			lastWall = e.Wall
		}
		evs := queuedFirst(t, s.ID, journaled)
		cur := Queued
		attempt := 0
		terminal := false
		for i, e := range evs {
			if terminal {
				t.Fatalf("session %d: event %q after its terminal record", s.ID, e.Type)
			}
			switch e.Type {
			case "queued":
				if i != 0 {
					t.Fatalf("session %d: %q not the first event", s.ID, e.Type)
				}
				cur = Queued
			case "admitted":
				if cur != Queued {
					t.Fatalf("session %d: admitted from %v", s.ID, cur)
				}
				if e.Attempt != attempt {
					t.Fatalf("session %d: admitted attempt %d, expected %d", s.ID, e.Attempt, attempt)
				}
			case "state":
				next, ok := stateByName[e.State]
				if !ok {
					t.Fatalf("session %d: unknown state %q", s.ID, e.State)
				}
				if !legal(cur, next) {
					t.Fatalf("session %d: illegal edge %v -> %v", s.ID, cur, next)
				}
				cur = next
			case "retry-scheduled":
				if cur != Failed && cur != RolledBack {
					t.Fatalf("session %d: retry scheduled from %v", s.ID, cur)
				}
				if e.Attempt != attempt+1 {
					t.Fatalf("session %d: retry attempt %d after attempt %d", s.ID, e.Attempt, attempt)
				}
				attempt = e.Attempt
			case "session-done":
				if cur != Done && cur != RolledBack {
					t.Fatalf("session %d: done record in state %v", s.ID, cur)
				}
				terminal = true
			case "session-degraded":
				if cur != Degraded {
					t.Fatalf("session %d: degraded record in state %v", s.ID, cur)
				}
				terminal = true
			case "session-failed":
				if cur != Failed {
					t.Fatalf("session %d: failed record in state %v", s.ID, cur)
				}
				// Terminal only if no retry follows; the replay loop's
				// terminal flag stays down so a retry-scheduled may come.
			}
		}
		if !s.State().Terminal() {
			t.Fatalf("session %d finished replay in non-terminal %v", s.ID, s.State())
		}
		if cur != s.State() {
			t.Fatalf("session %d: journal ends in %v but session is %v", s.ID, cur, s.State())
		}
		if s.Attempt() != attempt {
			t.Fatalf("session %d: journal counted attempt %d, session says %d", s.ID, attempt, s.Attempt())
		}
	}
}

// TestFinishedFollowsTheLastTerminalRecord: Session.Finished is what an
// outcome is reported on, so with faults, retries and a breaker in play it
// must release exactly once per session and only behind the record that
// really is the session's last — never behind a failed or rolled-back
// attempt the retry lane takes back, whose state reads terminal meanwhile.
func TestFinishedFollowsTheLastTerminalRecord(t *testing.T) {
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 4,
		Faults:     faults.New(faults.Config{Seed: 11, Rate: 0.3}),
		MaxRetries: 2, BreakerThreshold: 4,
	})
	defer f.Close()
	lastTerminal := func(evs []Event) (Event, bool) {
		for i := len(evs) - 1; i >= 0; i-- {
			switch evs[i].Type {
			case "session-done", "session-failed", "session-degraded":
				return evs[i], true
			case "retry-scheduled", "admitted":
				return Event{}, false
			}
		}
		return Event{}, false
	}
	type seen struct {
		rec     Event
		ok      bool
		state   State
		attempt int
	}
	var wg sync.WaitGroup
	var sessions []*Session
	atFinish := make([]seen, 16)
	for i, spec := range stressSpecs(len(atFinish), 300) {
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-s.Finished()
			rec, ok := lastTerminal(f.Journal().SessionEvents(s.ID))
			atFinish[i] = seen{rec, ok, s.State(), s.Attempt()}
		}()
	}
	f.Drain()
	wg.Wait()
	retried := 0
	for i, s := range sessions {
		got := atFinish[i]
		if !got.ok {
			t.Fatalf("session %d: Finished released with no terminal record closing its journal", s.ID)
		}
		if got.rec.State != got.state.String() || got.rec.Attempt != got.attempt {
			t.Fatalf("session %d: Finished released in %v attempt %d behind record %+v", s.ID, got.state, got.attempt, got.rec)
		}
		final, ok := lastTerminal(f.Journal().SessionEvents(s.ID))
		if !ok || final.Seq != got.rec.Seq {
			t.Fatalf("session %d: Finished released behind seq %d, but the session's last record is %+v", s.ID, got.rec.Seq, final)
		}
		if s.Attempt() > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no session was retried; the batch does not exercise the retry window")
	}
}

// TestZeroKnobRunsMatchLegacyFIFO: with every admission knob at its zero
// value the scheduler must be indistinguishable from the original FIFO
// fleet — same dispatch order on one worker, no policy counters, no new
// journal event types.
func TestZeroKnobRunsMatchLegacyFIFO(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()
	got, err := f.Run(stressSpecs(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, e := range f.Journal().Events() {
		switch e.Type {
		case "admitted":
			order = append(order, e.Session)
		case "retry-scheduled", "breaker-open", "breaker-closed", "session-degraded":
			t.Fatalf("zero-knob run emitted %q", e.Type)
		}
	}
	for i, id := range order {
		if id != got[i].ID {
			t.Fatalf("zero-knob dispatch order %v is not FIFO", order)
		}
	}
	snap := f.Snapshot()
	if snap.Retries != 0 || snap.QuotaStalls != 0 || snap.BreakerTrips != 0 ||
		snap.Degraded != 0 || snap.VirtualClock != 0 {
		t.Fatalf("zero-knob run accrued policy counters: %+v", snap)
	}
}

// TestTerminalStateCarriesItsOutcome: a poller that sees a terminal state
// must also see that state's outcome — a report for a finished optimize, an
// error for a failure. Pollers spin on each session while it completes
// under fsync-always (where the state edge's journal append is slowest);
// flipping the state before storing the report left exactly that fsync
// between the two, and a result fetched in the gap came back reportless.
func TestTerminalStateCarriesItsOutcome(t *testing.T) {
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 2,
		StateDir: t.TempDir(), Fsync: wal.SyncAlways,
	})
	defer f.Close()
	specs := append(stressSpecs(6, 1), SessionSpec{Bench: "no-such-bench", Seed: 7})
	var wg sync.WaitGroup
	for _, spec := range specs {
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := s.State()
				if !st.Terminal() {
					runtime.Gosched()
					continue
				}
				switch {
				case st == Failed && s.Err() == nil:
					t.Errorf("session %d observed Failed with no error", s.ID)
				case st != Failed && s.Report() == nil:
					t.Errorf("session %d observed %v with no report", s.ID, st)
				}
				return
			}
		}()
	}
	wg.Wait()
}
