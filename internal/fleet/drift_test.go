// Drift-watchdog acceptance tests: the re-tune lane end to end on a
// drifting workload, the zero-knob byte-identity discipline, the journal
// pairing invariant, and kill -9 mid-re-tune with the lane surviving
// recovery.
package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"rpg2/internal/drift"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
)

// driftSpec is the canonical drifting session: bc-drift with seed 1 and a
// warm-start hint of distance 2 activates in phase A at ~3.4 s with a
// short distance that the ~11.6 s phase switch then starves, so an armed
// watchdog reliably fires. Cold keeps the run deterministic; the 30 s
// budget leaves room to detect, re-tune, and run out.
func driftSpec() SessionSpec {
	return SessionSpec{
		Bench: "bc-drift", Seed: 1, Cold: true, RunSeconds: 30,
		Config: &rpgcore.Config{SeedDistance: 2},
	}
}

// TestDriftWatchdogRetunesDriftedSession is the tentpole scenario: a tuned
// session drifts at the phase switch, the watchdog fires, the re-tune lane
// re-enters the search seeded from the installed distance, and the session
// ends Done with a recovered rate — all of it visible in the journal and
// the metrics snapshot.
func TestDriftWatchdogRetunesDriftedSession(t *testing.T) {
	// Hysteresis 5 (default 3) lets the EWMA converge to the drifted
	// plateau before firing, so the recovered-rate comparison below is
	// against the degraded steady state, not a half-decayed average.
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 1,
		WatchdogInterval: 1, WatchdogHysteresis: 5,
	})
	defer f.Close()
	s, err := f.Submit(driftSpec())
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()

	if s.State() != Done {
		t.Fatalf("drifted session ended %v (err %v), want Done", s.State(), s.Err())
	}
	if s.Retunes() != 1 {
		t.Fatalf("session completed %d re-tunes, want 1", s.Retunes())
	}
	if s.Retuning() {
		t.Fatal("session still flagged retuning after Drain")
	}

	var detected, scheduled, complete, done *Event
	for _, e := range f.Journal().SessionEvents(s.ID) {
		e := e
		switch e.Type {
		case "drift-detected":
			detected = &e
		case "retune-scheduled":
			scheduled = &e
		case "retune-complete":
			complete = &e
		case "session-done":
			done = &e
		}
	}
	if detected == nil || scheduled == nil || complete == nil {
		t.Fatalf("journal missing drift lane events: detected=%v scheduled=%v complete=%v",
			detected != nil, scheduled != nil, complete != nil)
	}
	if detected.Rate >= detected.Ref {
		t.Fatalf("drift-detected rate %.4f not degraded below ref %.4f", detected.Rate, detected.Ref)
	}
	if detected.Windows <= 0 {
		t.Fatalf("drift-detected carries no detection latency: windows=%d", detected.Windows)
	}
	if scheduled.Retune != 1 || scheduled.Distance <= 0 {
		t.Fatalf("retune-scheduled grant=%d seed distance=%d, want grant 1 with a warm seed",
			scheduled.Retune, scheduled.Distance)
	}
	if complete.Rate <= detected.Rate {
		t.Fatalf("re-tune did not recover the rate: %.4f after drifting to %.4f",
			complete.Rate, detected.Rate)
	}
	if done == nil || done.Retune != 1 {
		t.Fatalf("session-done does not record the re-tune: %+v", done)
	}

	snap := f.Snapshot()
	if snap.DriftDetected != 1 || snap.RetunesScheduled != 1 || snap.RetunesCompleted != 1 {
		t.Fatalf("drift counters = %d/%d/%d, want 1/1/1",
			snap.DriftDetected, snap.RetunesScheduled, snap.RetunesCompleted)
	}
	if snap.DetectWindowsMean <= 0 {
		t.Fatalf("snapshot lost the detection latency: %+v", snap)
	}
	if text := snap.Render(); !containsStr(text, "drift watchdog") {
		t.Fatalf("rendered snapshot missing the drift watchdog line:\n%s", text)
	}
}

// TestDriftZeroKnobByteIdentity: with the watchdog off a fleet running the
// drifting bench must look exactly like the pre-drift fleet — no drift
// event types, no drift JSON keys anywhere in the journal, no drift
// counters, no watchdog line in the rendered snapshot.
func TestDriftZeroKnobByteIdentity(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()
	specs := append(stressSpecs(4, 1), driftSpec())
	if _, err := f.Run(specs); err != nil {
		t.Fatal(err)
	}
	for _, e := range f.Journal().Events() {
		switch e.Type {
		case "drift-detected", "retune-scheduled", "retune-complete":
			t.Fatalf("zero-knob run emitted %q", e.Type)
		}
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"retune", "rate", "ref", "windows"} {
			if _, ok := keys[k]; ok {
				t.Fatalf("zero-knob %q event serialized drift key %q: %s", e.Type, k, raw)
			}
		}
	}
	snap := f.Snapshot()
	if snap.DriftDetected != 0 || snap.RetunesScheduled != 0 || snap.RetunesCompleted != 0 ||
		snap.DetectWindowsMean != 0 {
		t.Fatalf("zero-knob run accrued drift counters: %+v", snap)
	}
	if text := snap.Render(); containsStr(text, "drift watchdog") {
		t.Fatalf("zero-knob snapshot renders the watchdog line:\n%s", text)
	}
}

// TestDriftJournalPairingInvariant runs a mixed fleet with the watchdog
// armed and replays the journal per session: every drift-detected must be
// immediately followed by the retune-scheduled that consumed the grant,
// completions never exceed grants, and the terminal record's re-tune count
// matches the completions seen.
func TestDriftJournalPairingInvariant(t *testing.T) {
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 2,
		WatchdogInterval: 1, MaxRetunes: 2,
	})
	defer f.Close()
	specs := []SessionSpec{driftSpec(), {Bench: "is", Seed: 2}, {Bench: "cg", Seed: 3}}
	drift2 := driftSpec()
	drift2.Seed = 6
	specs = append(specs, drift2)
	got, err := f.Run(specs)
	if err != nil {
		t.Fatal(err)
	}

	totalDetected := 0
	for _, s := range got {
		evs := f.Journal().SessionEvents(s.ID)
		scheduled, completed := 0, 0
		for i, e := range evs {
			switch e.Type {
			case "drift-detected":
				totalDetected++
				if i+1 >= len(evs) || evs[i+1].Type != "retune-scheduled" {
					t.Fatalf("session %d: drift-detected not followed by retune-scheduled: %+v",
						s.ID, evs)
				}
				if evs[i+1].Retune != e.Retune {
					t.Fatalf("session %d: detection grant %d paired with schedule grant %d",
						s.ID, e.Retune, evs[i+1].Retune)
				}
			case "retune-scheduled":
				scheduled++
				if i == 0 || evs[i-1].Type != "drift-detected" {
					t.Fatalf("session %d: retune-scheduled with no detection (no crash here): %+v",
						s.ID, evs)
				}
			case "retune-complete":
				completed++
			case "session-done":
				if e.Retune != completed {
					t.Fatalf("session %d: terminal record says %d re-tunes, journal shows %d",
						s.ID, e.Retune, completed)
				}
			}
		}
		if completed > scheduled {
			t.Fatalf("session %d: %d completions for %d grants", s.ID, completed, scheduled)
		}
		if s.Retunes() != completed {
			t.Fatalf("session %d: Retunes()=%d, journal shows %d completions",
				s.ID, s.Retunes(), completed)
		}
	}
	if totalDetected == 0 {
		t.Fatal("no drift detection fired; the invariant was never exercised")
	}
	snap := f.Snapshot()
	if snap.DriftDetected != totalDetected || snap.RetunesScheduled != totalDetected {
		t.Fatalf("snapshot pairing broken: detected=%d scheduled=%d, journal saw %d",
			snap.DriftDetected, snap.RetunesScheduled, totalDetected)
	}
}

// TestDriftCrashHelperProcess is the victim for the kill-mid-re-tune test:
// one drifting session on one worker, then a backlog of ordinary sessions
// so the granted re-tune sits queued behind real work — a wide wall-clock
// window for the parent's SIGKILL to land between retune-scheduled and the
// re-tune dispatch.
func TestDriftCrashHelperProcess(t *testing.T) {
	if os.Getenv("FLEET_WANT_DRIFT_HELPER") != "1" {
		t.Skip("helper process for TestKillMidRetuneRecoverLaneIntact")
	}
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 1,
		WatchdogInterval: 1,
		StateDir:         os.Getenv("FLEET_DRIFT_DIR"),
		Fsync:            wal.SyncAlways, SnapshotEvery: 1 << 30,
	})
	if _, err := f.Submit(driftSpec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		spec := crashPairs[i%len(crashPairs)]
		spec.Seed = int64(i + 100)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	time.Sleep(time.Minute) // the parent's SIGKILL ends this process
}

// TestKillMidRetuneRecoverLaneIntact kills a fleet after the re-tune lane
// granted a re-tune but before it completed, then recovers with -resume
// semantics: the grant must survive (no attempt bump, retuning restated in
// the fresh epoch) and the drifted session must still finish its re-tune.
func TestKillMidRetuneRecoverLaneIntact(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestDriftCrashHelperProcess", "-test.v")
	cmd.Env = append(os.Environ(), "FLEET_WANT_DRIFT_HELPER=1", "FLEET_DRIFT_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill the instant the grant is durable; the queue backlog keeps the
	// re-tune itself from dispatching for many milliseconds after this.
	journal := filepath.Join(dir, journalFile)
	deadline := time.Now().Add(120 * time.Second)
	for {
		if data, err := os.ReadFile(journal); err == nil &&
			bytes.Contains(data, []byte(`"retune-scheduled"`)) {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no retune-scheduled appeared in the child's WAL; child output:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // the kill is the expected exit

	f, rec, err := Recover(dir, Config{
		Machine: machine.CascadeLake(), Workers: 2,
		WatchdogInterval: 1,
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer f.Close()

	if rec.RequeuedRetuning < 1 {
		t.Fatalf("recovery did not keep the re-tune lane: %+v\nchild output:\n%s", rec, out.String())
	}
	if !containsStr(rec.Summary(), "re-tune lane") {
		t.Fatalf("recovery summary hides the lane: %q", rec.Summary())
	}

	var drifted *Session
	for _, s := range rec.Requeued {
		if s.Spec.Bench == "bc-drift" {
			drifted = s
			break
		}
	}
	if drifted == nil {
		t.Fatalf("drifted session not among the requeued: %+v", rec)
	}

	f.Drain()
	if !drifted.State().Terminal() || drifted.State() == Failed {
		t.Fatalf("recovered re-tune ended %v (err %v)", drifted.State(), drifted.Err())
	}
	// The grant was consumed pre-crash, not the retry budget: recovery
	// must not charge the interruption as a failed attempt.
	if drifted.Attempt() != 0 {
		t.Fatalf("recovery bumped the drifted session's attempt to %d", drifted.Attempt())
	}
	if drifted.State() == Done && drifted.Retunes() != 1 {
		t.Fatalf("recovered session completed %d re-tunes, want 1", drifted.Retunes())
	}
	for _, s := range rec.Requeued {
		if !s.State().Terminal() {
			t.Fatalf("requeued session %d never finished: %v", s.ID, s.State())
		}
	}
}

// TestSecondCrashKeepsRetuneLane: the re-tune lane posture of a session
// that was still watching when the process died — a consumed grant, a
// completed re-tune, the detector — must survive a second crash right
// after Recover, before any periodic roll. The old journal's
// retune-scheduled and retune-complete records are not restated in the
// fresh epoch, so only the fresh epoch's head carries them.
func TestSecondCrashKeepsRetuneLane(t *testing.T) {
	dir := t.TempDir()
	det := drift.State{Ref: 2.5, EWMA: 1.25, Degraded: 2, Samples: 9, Fired: 1}
	rec := func(id int, typ string, mod func(*Event)) Event {
		e := Event{Session: id, Type: typ, Bench: "is", Kind: OptimizeJob.String()}
		if mod != nil {
			mod(&e)
		}
		return e
	}
	queued := func(id int, run float64) Event {
		return rec(id, "queued", func(e *Event) {
			e.State = Queued.String()
			e.Spec = &SpecRecord{Bench: "is", Seed: int64(id + 1), RunSeconds: run}
		})
	}
	state := func(id int, st State) Event {
		return rec(id, "state", func(e *Event) { e.State = st.String() })
	}
	events := []Event{
		// Recovery re-admits in old-ID order, so under one worker session
		// 0 dispatches first and runs long: session 1 is still waiting when
		// the state dir is read back below.
		queued(0, 20),
		queued(1, 0),
		rec(1, "admitted", nil),
		state(1, Profiling), state(1, Rewriting), state(1, Tuning), state(1, Done),
		rec(1, "drift-detected", func(e *Event) { e.Retune, e.Windows = 1, 3 }),
		rec(1, "retune-scheduled", func(e *Event) { e.Retune, e.Distance = 1, 12 }),
		state(1, Queued),
		rec(1, "admitted", nil),
		state(1, Tuning),
		rec(1, "store-bypass", func(e *Event) { e.Reason, e.Retune = "retune", 1 }),
		rec(1, "retune-complete", func(e *Event) { e.Retune, e.Distance = 1, 14 }),
		state(1, Done),
	}
	for i := range events {
		events[i].Seq = i
	}
	writeJournalFile(t, dir, events, walDrift{Drift: []DriftRecord{{Session: 1, Granted: 1, Retunes: 1, Distance: 12, Detector: det}}})

	f, recovery, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer f.CancelQueued()
	if len(recovery.Requeued) != 2 {
		t.Fatalf("requeued %d sessions, want 2", len(recovery.Requeued))
	}
	watched := recovery.Requeued[1].ID

	// The second crash: read the state dir as it stands.
	st, err := readState(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got *pendingSession
	for i := range st.pending {
		if st.pending[i].oldID == watched {
			got = &st.pending[i]
		}
	}
	if got == nil {
		t.Fatalf("session %d is not pending after the second crash", watched)
	}
	if got.fold.granted != 1 || got.fold.Retunes != 1 {
		t.Errorf("second crash reads granted=%d retunes=%d, want 1 and 1", got.fold.granted, got.fold.Retunes)
	}
	if got.det == nil || *got.det != det {
		t.Errorf("second crash reads detector %+v, want %+v", got.det, det)
	}
}
