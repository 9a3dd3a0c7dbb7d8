// Commit-point durability: under fsync-always the journal sink only writes,
// and a record is made durable before anyone outside the process is told
// about it (DESIGN.md §11.5). What a crash keeps is the journal file as it
// stood at that instant — one file, rolled now and then to a fresh epoch —
// or, after a power cut, a prefix of it that reaches at least the last
// commit point. The sweep below recovers from every such state; the pins
// check the ordering that makes those the only states.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
)

// hookJournal reopens a gated fleet's live journal with a test FaultHook —
// the seam Config.DiskFaults fills in production — and returns the log the
// persister now appends to. Call before anything is submitted.
func hookJournal(t *testing.T, f *Fleet, hook func(op string) error) *wal.Log {
	t.Helper()
	p := f.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.log.Close(); err != nil {
		t.Fatalf("close the unhooked journal: %v", err)
	}
	log, sal, err := wal.Open(filepath.Join(p.dir, journalFile), wal.Config{Sync: p.fsync, FaultHook: hook})
	if err != nil || !sal.Clean() {
		t.Fatalf("reopen journal: %v (%s)", err, sal)
	}
	p.log = log
	return log
}

// prefixSession is one session as an independent reading of a journal
// file sees it, by the rules DESIGN.md §11 states (not by calling
// recovery's own fold).
type prefixSession struct {
	queued   bool
	terminal bool
	inFlight bool
	attempt  int
	state    string
}

// readPrefix folds a journal file's records (the stamp, the head, then
// events) into per-session dispositions and the store keys committed: the
// head's entries, then the store records after it.
func readPrefix(t *testing.T, recs [][]byte) (map[int]*prefixSession, map[Key]bool) {
	t.Helper()
	sessions := make(map[int]*prefixSession)
	keys := make(map[Key]bool)
	for _, rec := range recs {
		var e Event
		if err := json.Unmarshal(rec, &e); err != nil {
			t.Fatalf("journal record: %v", err)
		}
		if e.Type == "" {
			var ke KeyedEntry
			if json.Unmarshal(rec, &ke) == nil && ke.Key.Bench != "" {
				keys[ke.Key] = true
			}
			continue
		}
		switch e.Type {
		case "store-commit":
			keys[Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine}] = true
			continue
		case "store-invalidate":
			delete(keys, Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine})
			continue
		case "breaker-open", "breaker-closed":
			continue // roll-forward records: they name no session's story
		}
		if e.Session < 0 {
			continue
		}
		s := sessions[e.Session]
		if s == nil {
			s = &prefixSession{}
			sessions[e.Session] = s
		}
		switch e.Type {
		case "queued":
			s.queued, s.attempt = e.Spec != nil, e.Attempt
		case "admitted":
			s.inFlight, s.attempt = true, e.Attempt
		case "retry-scheduled":
			s.inFlight, s.terminal, s.attempt = false, false, e.Attempt
		case "session-done", "session-degraded", "session-failed":
			s.inFlight, s.terminal, s.state = false, true, e.State
		}
	}
	return sessions, keys
}

// crashState is a state dir as a crash at one instant leaves it: the live
// journal's records, the stage file beside it (nil when there is none),
// and which sessions the in-memory journal had finished by then.
type crashState struct {
	journal  [][]byte
	stage    []byte
	finished map[int]bool
}

// write lays the journal down in a fresh dir, beside stage when it is
// not nil.
func (cs crashState) write(t *testing.T, stage []byte) string {
	t.Helper()
	dst := t.TempDir()
	if err := wal.WriteAtomic(filepath.Join(dst, journalFile), cs.journal); err != nil {
		t.Fatal(err)
	}
	if stage != nil {
		if err := os.WriteFile(filepath.Join(dst, journalStageFile), stage, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestPrefixRecoverySweep freezes a fleet mid-batch — sessions finished,
// one retried, two in flight, two never admitted — and recovers from what
// a crash at any instant after the batch was submitted leaves: the state
// dir as it stood when each journal event had just been written. Starting
// at the last Submit fixes the sweep's extent. In "snapshot-mid-run" the
// journal rolls every two store commits, so the instants span several
// journal files, and an instant inside a roll leaves the old journal beside
// a staged one. At each instant no session whose Submit returned is lost:
// one the journal file names is finished by it (its journaled outcome
// kept, not run again) or re-admitted exactly once as the next attempt;
// one it does not name had finished before the roll that dropped it. The
// store holds exactly the file's commits. Where the journal's tail is past
// the last commit point, a power cut may keep less of it: within one
// epoch's file those prefixes are earlier instants, swept too; a roll's
// stamp, head and seed are synced before its rename, so no cut reaches
// into them (TestEpochRollCrashPoints). Each instant is also recovered
// beside the stage a
// roll begun at the freeze leaves ("snapshot=at-freeze", the subtest name
// the two-file layout's frozen snapshot had), which must change nothing.
func TestPrefixRecoverySweep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		snapEvery int
	}{{"journal-only", 1 << 30}, {"snapshot-mid-run", 2}} {
		t.Run(tc.name, func(t *testing.T) { sweepPrefixes(t, tc.snapEvery) })
	}
}

func sweepPrefixes(t *testing.T, snapEvery int) {
	dir := t.TempDir()
	f, start := newGated(Config{
		Machine: machine.CascadeLake(), Workers: 2, MaxRetries: 1,
		StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: snapEvery,
	})
	// After each event is written, keep the state dir as it stands: the
	// sink runs under the journal lock, so no other event lands meanwhile.
	var (
		mu       sync.Mutex
		states   = make(map[int]crashState) // by the event's Seq
		finished = make(map[int]bool)
	)
	f.Journal().SetSink(func(e Event) {
		f.persist.appendEvent(e)
		recs, _, err := wal.ReadAll(filepath.Join(dir, journalFile))
		if err != nil {
			t.Errorf("read the live journal: %v", err)
		}
		stage, _ := os.ReadFile(filepath.Join(dir, journalStageFile))
		mu.Lock()
		defer mu.Unlock()
		switch e.Type {
		case "session-done", "session-failed", "session-degraded":
			finished[e.Session] = true
		case "retry-scheduled":
			delete(finished, e.Session)
		}
		done := make(map[int]bool, len(finished))
		for id := range finished {
			done[id] = true
		}
		states[e.Seq] = crashState{journal: recs, stage: stage, finished: done}
	})

	// The batch, in dispatch order: four plain sessions, one whose first
	// attempt fails (the retry lane re-admits it), two that park their
	// workers inside the controller, two nobody is left to admit.
	var failed atomic.Bool
	failOnce := rpgcore.Config{FaultHook: func(stage string) error {
		if stage == "profile" && failed.CompareAndSwap(false, true) {
			return errors.New("injected first-attempt failure")
		}
		return nil
	}}
	entered, release := make(chan struct{}, 2), make(chan struct{})
	park := rpgcore.Config{FaultHook: func(stage string) error {
		if stage == "osr" {
			entered <- struct{}{}
			<-release
		}
		return nil
	}}
	var submitted []int
	submit := func(spec SessionSpec) {
		t.Helper()
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, s.ID)
	}
	for i := 0; i < 4; i++ {
		spec := crashPairs[i]
		spec.Seed = int64(i + 1)
		submit(spec)
	}
	submit(SessionSpec{Bench: "is", Seed: 5, Config: &failOnce})
	submit(SessionSpec{Bench: "cg", Seed: 6, Config: &park})
	submit(SessionSpec{Bench: "randacc", Seed: 7, Config: &park})
	submit(SessionSpec{Bench: "is", Seed: 8})
	submit(SessionSpec{Bench: "cg", Seed: 9})
	from := f.Journal().LastSeq() + 2 // records=N: the instant N-1 events were written
	start()
	defer func() {
		close(release)
		f.Drain()
		f.Close()
	}()
	<-entered
	<-entered // both workers are parked: nothing journals any more
	end := f.Journal().LastSeq() + 2

	// The frozen state really has every kind of session in it.
	full, _ := readPrefix(t, eventRecords(t, f.Journal().Events()))
	var nTerminal, nInFlight, nWaiting, nRetried int
	for _, s := range full {
		switch {
		case s.terminal:
			nTerminal++
		case s.inFlight:
			nInFlight++
		default:
			nWaiting++
		}
		if s.attempt > 0 {
			nRetried++
		}
	}
	if nTerminal < 4 || nInFlight != 2 || nWaiting < 2 || nRetried != 1 {
		t.Fatalf("frozen batch: %d terminal, %d in flight, %d waiting, %d retried", nTerminal, nInFlight, nWaiting, nRetried)
	}
	// In the rolling run the sweep really crosses rolls.
	stamps := make(map[string]bool)
	for n := from; n <= end; n++ {
		stamps[string(states[n-2].journal[0])] = true
	}
	if rolled := len(stamps) > 1; rolled != (snapEvery < 1<<30) {
		t.Fatalf("the swept instants span %d journal epochs with SnapshotEvery %d", len(stamps), snapEvery)
	}

	// The stage a roll begun at the freeze leaves: the next epoch's stamp,
	// the head and every open session's history, never renamed into place.
	// Finishing the roll afterwards keeps the frozen fleet healthy.
	f.persist.mu.Lock()
	old := f.persist.log
	f.persist.mu.Unlock()
	if err := f.persist.beginEpoch(f.journal, f.capture); err != nil {
		t.Fatal(err)
	}
	frozenStage, err := os.ReadFile(filepath.Join(dir, journalStageFile))
	if err != nil {
		t.Fatal(err)
	}
	f.persist.mu.Lock()
	staged := f.persist.log
	f.persist.mu.Unlock()
	if err := f.persist.roll().Publish(staged); err != nil {
		t.Fatal(err)
	}
	old.Abort()
	t.Logf("%d events written: sweeping %d instants from %d over %d journal epochs", end-1, end-from+1, from, len(stamps))

	// recoverCut recovers the state dir a crash at instant cs leaves (plus
	// stage, when set) and checks it against the file's own reading.
	recoverCut := func(t *testing.T, cs crashState, stage []byte) {
		want, wantKeys := readPrefix(t, cs.journal)
		cut := cs.write(t, stage)

		// The store, before recovery starts running sessions on it.
		st, err := readState(cut)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.entries) != len(wantKeys) {
			t.Fatalf("recovered store has %d entries, the journal committed %d", len(st.entries), len(wantKeys))
		}
		for k := range wantKeys {
			if _, ok := st.entries[k]; !ok {
				t.Fatalf("recovered store lost committed key %+v", k)
			}
		}

		f2, rec, err := Recover(cut, Config{Machine: machine.CascadeLake(), Workers: 2, MaxRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer f2.Close()
		if _, err := os.Stat(filepath.Join(cut, journalStageFile)); !os.IsNotExist(err) {
			t.Fatalf("the stage file outlived the recovered epoch's roll: %v", err)
		}
		records := make(map[int]RecoveredSession)
		for _, r := range rec.Records {
			records[r.OldID] = r
		}
		readmitted := make(map[*Session]int)
		for _, id := range submitted {
			r, ok := records[id]
			w := want[id]
			if w == nil || !w.queued {
				// A roll dropped the session's history: only a finished one's.
				if !cs.finished[id] {
					t.Fatalf("session %d lost: unfinished at the crash, but its queued record is not in the journal", id)
				}
				if ok {
					t.Fatalf("session %d has no journal history but recovered as %+v", id, r)
				}
				continue
			}
			if !ok {
				t.Fatalf("session %d lost: no recovery record", id)
			}
			if w.terminal {
				if r.Session != nil {
					t.Fatalf("session %d finished (%s) before the cut but was run again", id, w.state)
				}
				if r.State != w.state {
					t.Fatalf("session %d recovered as %q, journaled %q", id, r.State, w.state)
				}
				continue
			}
			if r.Session == nil {
				t.Fatalf("session %d was unfinished at the cut but not re-admitted (recovered as %q)", id, r.State)
			}
			next := w.attempt
			if w.inFlight {
				next++
			}
			if got := r.Session.Attempt(); got != next {
				t.Fatalf("session %d re-admitted as attempt %d, want %d", id, got, next)
			}
			readmitted[r.Session]++
		}
		if len(readmitted) != len(rec.Requeued) {
			t.Fatalf("%d sessions re-admitted, %d distinct ones owed", len(rec.Requeued), len(readmitted))
		}
		for s, times := range readmitted {
			if times != 1 {
				t.Fatalf("session handle %d stands for %d pre-crash sessions", s.ID, times)
			}
		}
		f2.Drain()
		for s := range readmitted {
			if !s.State().Terminal() {
				t.Fatalf("re-admitted session %d never finished: %v", s.ID, s.State())
			}
		}
	}

	for n := from; n <= end; n++ {
		t.Run(fmt.Sprintf("records=%d", n), func(t *testing.T) {
			t.Parallel() // each recovers its own copies of the state dir
			mu.Lock()
			cs := states[n-2]
			mu.Unlock()
			t.Run("snapshot=at-cut", func(t *testing.T) { recoverCut(t, cs, cs.stage) })
			t.Run("snapshot=at-freeze", func(t *testing.T) { recoverCut(t, cs, frozenStage) })
		})
	}
}

// eventRecords is events as journal records.
func eventRecords(t *testing.T, events []Event) [][]byte {
	t.Helper()
	recs := make([][]byte, len(events))
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = b
	}
	return recs
}

// TestSubmitNotAckedFromAnUnpublishedStage: a roll swaps its staged
// journal in before it renames it over journal.wal. A Submit in that window
// writes its queued record into the stage, so it must not return — hand
// out its session ID — until the rename: a kill -9 before it recovers the
// old journal, which does not name the session.
func TestSubmitNotAckedFromAnUnpublishedStage(t *testing.T) {
	dir := t.TempDir()
	f, start := newGated(Config{
		Machine: machine.CascadeLake(), Workers: 1,
		StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30,
	})
	defer func() {
		start()
		f.Drain()
		f.Close()
	}()
	// The roll's first half: the stage is seeded and swapped in.
	if err := f.persist.beginEpoch(f.journal, f.capture); err != nil {
		t.Fatal(err)
	}
	returned := make(chan *Session, 1)
	go func() {
		s, err := f.Submit(SessionSpec{Bench: "is", Seed: 1})
		if err != nil {
			t.Error(err)
		}
		returned <- s
	}()
	select {
	case s := <-returned:
		if got := pendingSessions(t, dir); got != 1 {
			t.Fatalf("Submit returned session %d while journal.wal names %d pending sessions: a crash now loses it", s.ID, got)
		}
	case <-time.After(100 * time.Millisecond):
	}
	// The roll's second half.
	f.persist.mu.Lock()
	staged := f.persist.log
	f.persist.mu.Unlock()
	if err := f.persist.roll().Publish(staged); err != nil {
		t.Fatal(err)
	}
	<-returned
	if got := pendingSessions(t, dir); got != 1 {
		t.Fatalf("after the publish journal.wal names %d pending sessions, want 1", got)
	}
}

// TestCommitPointDurableBeforeTold pins the ordering the prefix argument
// rests on, with a counting sync hook on the live journal: Submit returns
// only after an fsync covering the session's queued record, and a Watcher
// is woken for a terminal record, and the session's Finished released, only
// after an fsync covering that record has finished — while records between
// commit points cost no fsync at all.
func TestCommitPointDurableBeforeTold(t *testing.T) {
	f, start := newGated(Config{
		Machine: machine.CascadeLake(), Workers: 1,
		StateDir: t.TempDir(), Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30,
	})
	wake := f.Journal().Watch()
	defer f.Journal().Unwatch(wake)

	var (
		log     atomic.Pointer[wal.Log]
		sess    atomic.Pointer[Session]
		mu      sync.Mutex
		syncs   int   // physical fsyncs
		covered int   // records the fsyncs so far covered, at least
		owed    []int // record index of each commit-point event written
		armed   bool  // a commit-point record is written and not yet synced
	)
	log.Store(hookJournal(t, f, func(op string) error {
		if op != "sync" {
			return nil
		}
		n := log.Load().Records()
		mu.Lock()
		syncs++
		if n > covered {
			covered = n
		}
		check := armed
		armed = false
		mu.Unlock()
		if check {
			// The fsync is "in flight" for as long as this hook holds it.
			// The commit-point record's wake must not arrive before it ends,
			// and nobody may be handed the outcome.
			time.Sleep(5 * time.Millisecond)
			select {
			case <-wake:
				t.Error("a watcher was woken for a commit-point record before its fsync finished")
			default:
			}
			if s := sess.Load(); s != nil {
				select {
				case <-s.Finished():
					t.Error("Finished was released before the terminal record's fsync finished")
				default:
				}
			}
		}
		return nil
	}))
	// The sink runs under the journal lock, before add wakes or commits:
	// every earlier event's wake has been sent by now, so emptying the
	// channel here leaves it to this record's own wake alone.
	f.Journal().SetSink(func(e Event) {
		f.persist.appendEvent(e)
		if commitPoint(e) {
			select {
			case <-wake:
			default:
			}
			mu.Lock()
			owed = append(owed, log.Load().Records())
			armed = true
			mu.Unlock()
		}
	})
	told := func(what string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		idx := owed[len(owed)-1]
		if covered < idx {
			t.Fatalf("%s, but no fsync has covered record %d (covered %d)", what, idx, covered)
		}
		select {
		case <-wake:
		default:
			t.Fatalf("%s, but no watcher was woken", what)
		}
	}

	s, err := f.Submit(SessionSpec{Bench: "is", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	told("Submit returned")
	sess.Store(s)

	start()
	f.Drain()
	select {
	case <-s.Finished():
	default:
		t.Fatalf("the fleet drained with the session (%v) not Finished", s.State())
	}
	told("the session's terminal record was journaled")
	mu.Lock()
	events, points, physical := f.Journal().LastSeq()+1, len(owed), syncs
	mu.Unlock()
	if points != 2 || physical != 2 {
		t.Fatalf("%d events: %d commit points, %d fsyncs; want one each for queued and session-done", events, points, physical)
	}
	if events <= points {
		t.Fatalf("only %d events journaled; the session wrote nothing between its commit points", events)
	}
	f.Close()
}
