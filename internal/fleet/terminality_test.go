// "Which journal events leave a session open" has one owner, the journal's
// fold (sessionFold.apply), and three readers: readState, which decides who
// Recover re-admits; persister.beginEpoch, which decides whose history a
// fresh epoch's WAL (a re-armed one included) is seeded with; and Snapshot,
// which counts what finished. These tests hold them to the same answer —
// with one intended difference: a drain's cancellation is a failed session
// to Snapshot and a pending one to recovery.
package fleet

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// writeJournalFile lays events down as a never-degraded persister would
// have: the epoch record, the given head records, then every event in
// order.
func writeJournalFile(t *testing.T, dir string, events []Event, head ...any) {
	t.Helper()
	meta, _ := json.Marshal(walMeta{Wal: "journal", Epoch: 1})
	payloads := [][]byte{meta}
	for _, rec := range head {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	if err := wal.WriteAtomic(filepath.Join(dir, journalFile), payloads); err != nil {
		t.Fatal(err)
	}
}

// readmissions is who readState would have Recover re-admit from dir:
// pre-crash session ID -> the attempt it would re-run as.
func readmissions(t *testing.T, dir string) map[int]int {
	t.Helper()
	st, err := readState(dir)
	if err != nil {
		t.Fatalf("readState(%s): %v", dir, err)
	}
	out := make(map[int]int, len(st.pending))
	for _, ps := range st.pending {
		out[ps.oldID] = ps.attempt
	}
	return out
}

// pendingIDs is readmissions' sorted session IDs.
func pendingIDs(t *testing.T, dir string) []int {
	t.Helper()
	var ids []int
	for id := range readmissions(t, dir) {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// rearmedDir re-seeds a fresh state dir from j the way a healed persister
// does: open an epoch, degrade it, re-arm from the in-memory journal.
func rearmedDir(t *testing.T, j *Journal) string {
	t.Helper()
	dir := t.TempDir()
	p, err := openPersister(dir, Config{Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	noState := func() liveState { return liveState{} }
	if err := p.startEpoch(NewJournal(), noState); err != nil {
		t.Fatal(err)
	}
	p.fail(errors.New("disk gone"))
	if err := p.rollEpoch(j, noState, 1); err != nil {
		t.Fatalf("rearm: %v", err)
	}
	p.close(j, noState)
	return dir
}

func TestTerminalityRuleSharedByRearmAndRecover(t *testing.T) {
	canceled := ErrCanceled.Error()
	ev := func(typ string) Event { return Event{Type: typ} }
	failed := func(msg string) Event { return Event{Type: "session-failed", State: Failed.String(), Err: msg} }
	cases := []struct {
		name     string
		events   []Event // after the session's "queued" record
		pending  bool    // recovery re-admits it
		counted  string  // what Snapshot counts it as ("" = not finished)
		retuning bool    // a granted re-tune pass has not ended
	}{
		{"queued", nil, true, "", false},
		{"in-flight", []Event{ev("admitted")}, true, "", false},
		{"done", []Event{ev("admitted"), ev("session-done")}, false, "done", false},
		{"degraded", []Event{ev("admitted"), ev("session-degraded")}, false, "degraded", false},
		{"failed", []Event{ev("admitted"), failed("boom")}, false, "failed", false},
		{"cancelled-resumes", []Event{failed(canceled)}, true, "failed", false},
		{"fail-retry", []Event{ev("admitted"), failed("boom"), ev("retry-scheduled")}, true, "", false},
		{"fail-retry-done", []Event{ev("admitted"), failed("boom"), ev("retry-scheduled"),
			ev("admitted"), ev("session-done")}, false, "done", false},
		{"fail-retry-cancelled", []Event{ev("admitted"), failed("boom"), ev("retry-scheduled"),
			failed(canceled)}, true, "failed", false},
		{"done-retune-scheduled", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled")}, true, "", true},
		{"done-retune-in-flight", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			ev("admitted")}, true, "", true},
		{"done-retune-done", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			ev("admitted"), ev("retune-complete"), ev("session-done")}, false, "done", false},
		// The target exited mid-pass: no retune-complete, the session's
		// session-done ends the pass.
		{"done-retune-exited", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			ev("admitted"), ev("session-done")}, false, "done", false},
		{"done-retune-failed", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			ev("admitted"), failed("boom")}, false, "failed", false},
		// A pass that rolled back is retried as a cold re-profile.
		{"done-retune-retry", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			ev("admitted"), ev("retry-scheduled")}, true, "", false},
		// A drain cancelled the pass before it ran: it is still owed.
		{"done-retune-cancelled", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			failed(canceled)}, true, "failed", true},
	}

	// One journal, one session per case, the cases' events interleaved so
	// no reader can lean on a session's events being contiguous.
	j := NewJournal()
	var want []int
	for id, c := range cases {
		spec := SessionSpec{Bench: "is", Seed: int64(id + 1)}
		j.add(Event{Session: id, Type: "queued", Bench: "is", Spec: RecordSpec(spec)})
		if c.pending {
			want = append(want, id)
		}
	}
	for step := 0; ; step++ {
		more := false
		for id, c := range cases {
			if step < len(c.events) {
				e := c.events[step]
				e.Session, e.Bench = id, "is"
				j.add(e)
				more = true
			}
		}
		if !more {
			break
		}
	}

	// The live journal's fold: each session's two readings, and the
	// Snapshot they add up to.
	var counts Snapshot
	for id, c := range cases {
		sf := j.fold.sessions[id]
		if sf.pending() != c.pending {
			t.Errorf("%s: the fold reads pending=%v, want %v", c.name, sf.pending(), c.pending)
		}
		if got := strings.TrimPrefix(sf.end, "session-"); got != c.counted {
			t.Errorf("%s: Snapshot counts it as %q, want %q", c.name, got, c.counted)
		}
		if v, _ := j.View(id); v.Retuning != c.retuning {
			t.Errorf("%s: Journal.View reads retuning=%v, want %v", c.name, v.Retuning, c.retuning)
		}
		if c.counted != "" {
			counts.Completed++
		}
		switch c.counted {
		case "failed":
			counts.Failed++
		case "degraded":
			counts.Degraded++
		}
	}
	var snap Snapshot
	j.tally(&snap)
	if snap.Completed != counts.Completed || snap.Failed != counts.Failed || snap.Degraded != counts.Degraded {
		t.Errorf("Snapshot counts %d completed, %d failed, %d degraded; want %d, %d, %d",
			snap.Completed, snap.Failed, snap.Degraded, counts.Completed, counts.Failed, counts.Degraded)
	}

	plain := t.TempDir()
	writeJournalFile(t, plain, j.Events())
	rearmed := rearmedDir(t, j)
	if got := pendingIDs(t, plain); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered journal: pending %v, want %v", got, want)
	}
	if got := pendingIDs(t, rearmed); !reflect.DeepEqual(got, want) {
		t.Errorf("re-armed journal: pending %v, want %v", got, want)
	}

	// Whether a re-tune pass is owed reads the same in recovery's fold and
	// in the Recovery.Records a restarted daemon serves status from.
	for _, dir := range []string{plain, rearmed} {
		st, err := readState(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range st.pending {
			if c := cases[ps.oldID]; ps.fold.Retuning != c.retuning {
				t.Errorf("%s: readState reads retuning=%v, want %v", c.name, ps.fold.Retuning, c.retuning)
			}
		}
		for _, r := range st.rec.Records {
			if c := cases[r.OldID]; r.Retuning != c.retuning {
				t.Errorf("%s: Recovery.Records reads retuning=%v, want %v", c.name, r.Retuning, c.retuning)
			}
		}
	}
}

// TestFoldLateQueuedKeepsAttempt: a submitter's queued record can land
// after its own session's dispatch records (DESIGN.md §11.4), here after a
// failure and the retry it scheduled. The queued record's submit-time
// attempt must not take the session back to attempt 0: the live view,
// recovery's re-admission and the record a restarted daemon serves all
// read attempt 1, as the journal does.
func TestFoldLateQueuedKeepsAttempt(t *testing.T) {
	j := NewJournal()
	spec := SessionSpec{Bench: "is", Seed: 1}
	for _, e := range []Event{
		{Type: "admitted", Attempt: 0},
		{Type: "session-failed", State: Failed.String(), Err: "boom", Attempt: 0},
		{Type: "retry-scheduled", Attempt: 1},
		{Type: "queued", State: Queued.String(), Spec: RecordSpec(spec), Attempt: 0},
	} {
		e.Bench = "is"
		j.add(e)
	}
	if v, _ := j.View(0); v.Attempt != 1 {
		t.Errorf("Journal.View reads attempt %d, want 1", v.Attempt)
	}
	dir := t.TempDir()
	writeJournalFile(t, dir, j.Events())
	st, err := readState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.pending) != 1 || st.pending[0].attempt != 1 {
		t.Errorf("readState re-admits %+v, want session 0 as attempt 1", st.pending)
	}
	if len(st.rec.Records) != 1 || st.rec.Records[0].Attempt != 1 {
		t.Errorf("Recovery.Records reads %+v, want attempt 1", st.rec.Records)
	}
}

// TestRearmedJournalRecoversLikeNeverDegraded is the end-to-end case: a
// persisted fleet degrades on an injected fsync fault, re-arms with most of
// its sessions still open, has the rest of its queue cancelled, and dies
// without closing. Recover over that state dir must re-admit exactly the
// sessions a fleet that never degraded — one whose WAL simply holds every
// event the in-memory journal does — would re-admit, as the same attempts.
func TestRearmedJournalRecoversLikeNeverDegraded(t *testing.T) {
	const sessions = 12
	dir := t.TempDir()
	f, start := newGated(Config{
		Machine: machine.CascadeLake(), Workers: 1,
		StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30,
		DiskFaults:   faults.NewDisk(faults.DiskConfig{Seed: 3, SyncRate: 1, MaxFaults: 1}),
		RearmBackoff: 4,
		MaxRetries:   1, Faults: faults.New(faults.Config{Seed: 7, Rate: 0.2}),
	})
	chaosSubmit(t, f, sessions)
	wake := f.Journal().Watch()
	defer f.Journal().Unwatch(wake)
	start()
	rearmed := func() bool {
		for _, e := range f.Journal().Events() {
			if e.Type == "persist-rearmed" {
				return true
			}
		}
		return false
	}
	for !rearmed() {
		<-wake
	}
	cancelled := f.CancelQueued()
	f.Drain()
	// The crash: no Close, so no final roll and no clean WAL close.
	// Under fsync-always every journaled event is already on disk.
	defer f.Close()

	if snap := f.Snapshot(); snap.Persistence != "active" || snap.PersistRearms != 1 {
		t.Fatalf("persistence %q after %d re-arms; the arc never healed", snap.Persistence, snap.PersistRearms)
	}
	if cancelled == 0 {
		t.Fatal("nothing was still queued when the WAL re-armed; the case is vacuous")
	}

	reference := t.TempDir()
	writeJournalFile(t, reference, f.Journal().Events())
	want, got := readmissions(t, reference), readmissions(t, dir)
	if len(want) < cancelled {
		t.Fatalf("reference journal re-admits %d sessions, fewer than the %d cancelled", len(want), cancelled)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-armed state dir re-admits %v, a never-degraded journal of the same events %v", got, want)
	}

	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 1})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer f2.Close()
	if len(rec.Requeued) != len(want) {
		t.Fatalf("Recover re-admitted %d sessions, want %d", len(rec.Requeued), len(want))
	}
	f2.Drain()
	for _, s := range rec.Requeued {
		if !s.State().Terminal() {
			t.Fatalf("re-admitted session %d never finished", s.ID)
		}
	}
}

// TestRollScanMatchesFullScan: a roll scans the journal from the oldest
// pending session's first record (or from just past w0), not from seq 0.
// Over a long history of finished sessions, with a session that re-opens
// after the roll has moved past it, a cancelled one, open ones and store
// and breaker records on both sides of w0, every stage must hold byte for
// byte what a scan of the whole history writes — the closing roll's
// included.
func TestRollScanMatchesFullScan(t *testing.T) {
	j := NewJournal()
	add := func(id int, types ...string) {
		for _, typ := range types {
			e := Event{Session: id, Type: typ, Bench: "is"}
			if typ == "session-failed" {
				e.Err = "boom"
			}
			j.add(e)
		}
	}
	finished := func(from, to int) {
		for id := from; id < to; id++ {
			add(id, "queued", "admitted", "session-done")
			if id%97 == 0 {
				add(-1, "store-commit", "breaker-open")
			}
		}
	}
	add(0, "queued", "admitted", "session-failed") // re-opened after the first roll
	finished(1, 1500)
	j.add(Event{Session: 1500, Type: "queued"})
	j.add(Event{Session: 1500, Type: "session-failed", Err: ErrCanceled.Error()})
	finished(1501, 3000)
	add(3000, "queued", "admitted") // still open

	dir := t.TempDir()
	p, err := openPersister(dir, Config{Fsync: wal.SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	roll := func(final bool) {
		t.Helper()
		w0 := j.LastSeq()
		st := liveState{nextID: 3001, final: final}
		capture := func() liveState {
			// Records landing between w0 and the scan.
			add(-1, "store-commit", "breaker-closed")
			add(3000, "state")
			return st
		}
		old := p.log
		if err := p.beginEpoch(j, capture); err != nil {
			t.Fatal(err)
		}
		got, _, err := wal.ReadAll(filepath.Join(dir, journalStageFile))
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeHead(p.epoch, st)
		if err != nil {
			t.Fatal(err)
		}
		var fd fold
		events := j.Events()
		for _, e := range events {
			fd.apply(e)
		}
		for _, e := range events {
			switch e.Type {
			case "store-commit", "store-invalidate", "breaker-open", "breaker-closed":
				if e.Seq <= w0 {
					continue
				}
			default:
				if e.Session < 0 || !final && !fd.sessions[e.Session].pending() {
					continue
				}
			}
			want = append(want, eventRecords(t, []Event{e})...)
		}
		if len(got) != len(want) {
			t.Fatalf("final=%v: stage holds %d records, a full scan writes %d", final, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("final=%v: stage record %d = %s, a full scan writes %s", final, i, got[i], want[i])
			}
		}
		if err := p.roll().Publish(p.log); err != nil {
			t.Fatal(err)
		}
		if old != nil {
			old.Abort()
		}
	}
	roll(false)
	add(0, "retry-scheduled") // behind the scan's start since the last roll
	finished(3001, 3200)
	roll(false)
	add(0, "admitted", "session-done")
	roll(false)
	roll(true)
	p.log.Close()
}

// TestRollWaitsOutRetryDecision: a roll begun between a session-failed
// record and the retry-scheduled that re-opens the session (the window
// Fleet.failSession holds persister.retrying across) seeds only once the
// decision is journaled, so the new epoch keeps the session's queued
// record. Without the wait the scan reads the session as finished, and a
// crash in that epoch loses the re-admitted session.
func TestRollWaitsOutRetryDecision(t *testing.T) {
	j := NewJournal()
	j.add(Event{Session: 0, Type: "queued", Bench: "is"})
	j.add(Event{Session: 0, Type: "admitted", Bench: "is"})
	dir := t.TempDir()
	p, err := openPersister(dir, Config{Fsync: wal.SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	p.retrying.RLock()
	j.add(Event{Session: 0, Type: "session-failed", Bench: "is", Err: "boom"})
	captured, done := make(chan struct{}), make(chan error, 1)
	go func() {
		done <- p.beginEpoch(j, func() liveState {
			close(captured)
			return liveState{nextID: 1}
		})
	}()
	<-captured
	time.Sleep(20 * time.Millisecond) // let an unguarded scan run first
	j.add(Event{Session: 0, Type: "retry-scheduled", Bench: "is", Attempt: 1})
	p.retrying.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	defer p.log.Abort()
	got, _, err := wal.ReadAll(filepath.Join(dir, journalStageFile))
	if err != nil {
		t.Fatal(err)
	}
	queued := string(eventRecords(t, j.Events()[:1])[0])
	for _, rec := range got {
		if string(rec) == queued {
			return
		}
	}
	t.Fatalf("the stage lost the retried session's queued record: %d records", len(got))
}
