package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// crashedRun leaves a state dir the way a crash does: a persisted fleet with
// faults and a retry lane finishes two sessions, has the rest of its queue
// cancelled, drains, and is left unclosed (it closes at cleanup). It
// returns the fleet and its state dir.
func crashedRun(tb testing.TB) (*Fleet, string) {
	tb.Helper()
	dir := tb.TempDir()
	f, start := newGated(Config{
		Machine: machine.CascadeLake(), Workers: 1,
		StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 1,
		MaxRetries: 1, Faults: faults.New(faults.Config{Seed: 7, Rate: 0.3}),
	})
	tb.Cleanup(f.Close)
	var sessions []*Session
	for _, spec := range stressSpecs(6, 1) {
		s, err := f.Submit(spec)
		if err != nil {
			tb.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	start()
	<-sessions[0].Finished()
	<-sessions[1].Finished()
	f.CancelQueued()
	f.Drain()
	return f, dir
}

// TestFoldLiveMatchesRecovery: the fold the live journal keeps and the fold
// recovery makes of the WAL the journal wrote are the same reading — every
// finished session recovers with the view its status showed, every
// cancelled one is re-admitted, and nothing else is.
func TestFoldLiveMatchesRecovery(t *testing.T) {
	f, dir := crashedRun(t)
	st, err := readState(dir)
	if err != nil {
		t.Fatal(err)
	}
	records := make(map[int]RecoveredSession)
	for _, r := range st.rec.Records {
		records[r.OldID] = r
	}
	pending := readmissions(t, dir)
	cancelled := 0
	for _, s := range f.Sessions() {
		live, ok := f.Journal().View(s.ID)
		if !ok {
			t.Fatalf("session %d has no view", s.ID)
		}
		if live.Err == ErrCanceled.Error() {
			cancelled++
			if _, ok := pending[s.ID]; !ok {
				t.Errorf("cancelled session %d is not re-admitted", s.ID)
			}
			continue
		}
		if _, ok := pending[s.ID]; ok {
			t.Errorf("finished session %d (%s) is re-admitted", s.ID, live.State)
		}
		want, _ := json.Marshal(live)
		got, _ := json.Marshal(records[s.ID].SessionView)
		if !bytes.Equal(got, want) {
			t.Errorf("session %d recovers as\n%s\nits live view is\n%s", s.ID, got, want)
		}
	}
	if cancelled == 0 || cancelled == len(f.Sessions()) {
		t.Fatalf("%d of %d sessions cancelled; the run does not mix finished and pending", cancelled, len(f.Sessions()))
	}
}

// TestFoldLateQueuedKeepsState: a submitter's queued record may land after
// its own session's dispatch records (DESIGN.md §11.4). It names the state
// only of a session no record has put in one, so status never moves back.
func TestFoldLateQueuedKeepsState(t *testing.T) {
	ev := func(typ string, st State) Event { return Event{Type: typ, State: st.String()} }
	queued, admitted := ev("queued", Queued), Event{Type: "admitted"}
	cases := []struct {
		name   string
		events []Event
		want   State
	}{
		{"queued first", []Event{queued, admitted, ev("state", Profiling)}, Profiling},
		{"after admitted", []Event{admitted, queued}, Queued},
		{"after a state edge", []Event{admitted, {Type: "store-miss"}, ev("state", Profiling), queued}, Profiling},
		{"after the outcome", []Event{admitted, ev("state", Done), ev("session-done", Done), queued}, Done},
	}
	for _, c := range cases {
		j := NewJournal()
		for _, e := range c.events {
			j.add(e)
		}
		if v, _ := j.View(0); v.State != c.want.String() {
			t.Errorf("%s: state %q, want %q", c.name, v.State, c.want)
		}
	}
}

// lines is a WAL file's salvaged records, one per line.
func lines(f *testing.F, file []byte) []byte {
	path := filepath.Join(f.TempDir(), "x.wal")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		f.Fatal(err)
	}
	recs, _, err := wal.ReadAll(path)
	if err != nil {
		f.Fatal(err)
	}
	return bytes.Join(recs, []byte("\n"))
}

// FuzzReadState feeds arbitrary bytes to recovery as a state dir's
// journal.wal and snapshot.wal. With framed set, each input is split into
// lines that are written as well-formed WAL records, so the fuzzer reaches
// the snapshot decoder (readSnap), the event decoder and the fold behind the
// checksums; without it the bytes land on disk as they are. Whatever the
// files hold, readState must not panic, must not fail (only the sharded
// layout is refused), must account for every session it saw as terminal or
// pending, and must re-admit only sessions whose queued record carries a
// spec.
func FuzzReadState(f *testing.F) {
	_, dir := crashedRun(f)
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	journal, snapshot := read(journalFile), read(snapshotFile)
	f.Add(journal, snapshot, false)
	f.Add(lines(f, journal), lines(f, snapshot), true)
	f.Add([]byte(`{"wal":"journal","epoch":2}
{"session":0,"type":"queued","spec":{"bench":"is"}}
{"session":0,"type":"admitted"}
{"session":0,"type":"session-done","state":"done"}
{"session":0,"type":"retune-scheduled","retune":1,"distance":12}
{"session":1,"type":"session-failed","error":"fleet: session cancelled before dispatch"}`),
		[]byte(`{"wal":"snapshot","epoch":3,"seq":1}
{"sched":{}}
{"drift":[{"session":0,"granted":1,"retuning":true,"distance":9,"detector":{"ref":1}}]}
{"key":{"bench":"is"},"entry":{"func":"f","distance":12}}`), true)
	f.Add([]byte{}, []byte{}, false)

	f.Fuzz(func(t *testing.T, journal, snapshot []byte, framed bool) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{journalFile: journal, snapshotFile: snapshot} {
			path := filepath.Join(dir, name)
			var err error
			if framed {
				err = wal.WriteAtomic(path, bytes.Split(data, []byte("\n")))
			} else {
				err = os.WriteFile(path, data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		st, err := readState(dir)
		if err != nil {
			t.Fatalf("readState: %v", err)
		}
		if st.rec.Sessions != st.rec.Terminal+len(st.pending) {
			t.Fatalf("%d sessions, %d terminal, %d pending", st.rec.Sessions, st.rec.Terminal, len(st.pending))
		}
		recs, _, err := wal.ReadAll(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		specced := make(map[int]bool)
		for _, rec := range recs {
			var e Event
			if json.Unmarshal(rec, &e) == nil && e.Type == "queued" && e.Spec != nil {
				specced[e.Session] = true
			}
		}
		for _, ps := range st.pending {
			if !specced[ps.oldID] {
				t.Fatalf("session %d is re-admitted without a queued record carrying its spec", ps.oldID)
			}
		}
	})
}
