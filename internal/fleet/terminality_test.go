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

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// writeJournalFile lays events down as a never-degraded persister would
// have: the epoch record, then every event in order.
func writeJournalFile(t *testing.T, dir string, events []Event) {
	t.Helper()
	meta, _ := json.Marshal(walMeta{Wal: "journal", Epoch: 1})
	payloads := [][]byte{meta}
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
	if err := p.rearm(j, noState); err != nil {
		t.Fatalf("rearm: %v", err)
	}
	p.close()
	return dir
}

func TestTerminalityRuleSharedByRearmAndRecover(t *testing.T) {
	canceled := ErrCanceled.Error()
	ev := func(typ string) Event { return Event{Type: typ} }
	failed := func(msg string) Event { return Event{Type: "session-failed", State: Failed.String(), Err: msg} }
	cases := []struct {
		name    string
		events  []Event // after the session's "queued" record
		pending bool    // recovery re-admits it
		counted string  // what Snapshot counts it as ("" = not finished)
	}{
		{"queued", nil, true, ""},
		{"in-flight", []Event{ev("admitted")}, true, ""},
		{"done", []Event{ev("admitted"), ev("session-done")}, false, "done"},
		{"degraded", []Event{ev("admitted"), ev("session-degraded")}, false, "degraded"},
		{"failed", []Event{ev("admitted"), failed("boom")}, false, "failed"},
		{"cancelled-resumes", []Event{failed(canceled)}, true, "failed"},
		{"fail-retry", []Event{ev("admitted"), failed("boom"), ev("retry-scheduled")}, true, ""},
		{"fail-retry-done", []Event{ev("admitted"), failed("boom"), ev("retry-scheduled"),
			ev("admitted"), ev("session-done")}, false, "done"},
		{"fail-retry-cancelled", []Event{ev("admitted"), failed("boom"), ev("retry-scheduled"),
			failed(canceled)}, true, "failed"},
		{"done-retune-scheduled", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled")}, true, ""},
		{"done-retune-done", []Event{ev("admitted"), ev("session-done"), ev("retune-scheduled"),
			ev("admitted"), ev("retune-complete"), ev("session-done")}, false, "done"},
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
	if got := pendingIDs(t, plain); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered journal: pending %v, want %v", got, want)
	}
	if got := pendingIDs(t, rearmedDir(t, j)); !reflect.DeepEqual(got, want) {
		t.Errorf("re-armed journal: pending %v, want %v", got, want)
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
	// The crash: no Close, so no final snapshot and no clean WAL close.
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
