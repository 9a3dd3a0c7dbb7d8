// Commit-point durability: under fsync-always the journal sink only writes,
// and a record is made durable before anyone outside the process is told
// about it (DESIGN.md §11.5). What a power cut keeps is therefore a prefix
// of the written journal that reaches at least the last commit point. The
// sweep below recovers from every such prefix; the pin checks the ordering
// that makes those the only prefixes.
package fleet

import (
	"bytes"
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

// durableFrontier is a journal hook that tracks how many records have
// reached stable storage — each fsync ("sync") covers at least the records
// the log held when the hook ran — and, before each record is written
// ("write"), keeps the snapshot file as it stands: with the journal's
// records so far, the state dir a power cut at that instant leaves.
type durableFrontier struct {
	log  atomic.Pointer[wal.Log]
	snap string // the state dir's snapshot file
	mu   sync.Mutex
	n    int
	base int      // records the log held when the hook was installed
	seen [][]byte // seen[i]: the snapshot file while the log held base+i records
}

func (d *durableFrontier) hook(op string) error {
	switch op {
	case "sync":
		n := d.log.Load().Records()
		d.mu.Lock()
		if n > d.n {
			d.n = n
		}
		d.mu.Unlock()
	case "write":
		// Runs under the log's lock, so it must not ask the log anything;
		// the rename that replaces a snapshot is atomic, so this reads the
		// old file or the new one.
		b, _ := os.ReadFile(d.snap)
		d.mu.Lock()
		d.seen = append(d.seen, b)
		d.mu.Unlock()
	}
	return nil
}

func (d *durableFrontier) records() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// snapshotAt is the snapshot file as it stood while the journal held its
// first n records (n below the records written so far).
func (d *durableFrontier) snapshotAt(n int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seen[n-d.base]
}

// prefixSession is one session as an independent reading of a journal
// prefix sees it, by the rules DESIGN.md §11 states (not by calling
// recovery's own fold).
type prefixSession struct {
	queued   bool
	terminal bool
	inFlight bool
	attempt  int
	state    string
}

// readPrefix folds a journal prefix (records[0] is the epoch stamp) into
// per-session dispositions and the store keys committed inside it.
func readPrefix(t *testing.T, recs [][]byte) (map[int]*prefixSession, map[Key]bool) {
	t.Helper()
	sessions := make(map[int]*prefixSession)
	keys := make(map[Key]bool)
	for _, rec := range recs[1:] {
		var e Event
		if err := json.Unmarshal(rec, &e); err != nil {
			t.Fatalf("journal record: %v", err)
		}
		switch e.Type {
		case "store-commit":
			keys[Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine}] = true
		case "store-invalidate":
			delete(keys, Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine})
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

// recordOf is the length of the shortest journal prefix holding the event
// numbered seq (0 for seq < 0: a snapshot from before any event).
func recordOf(t *testing.T, journal [][]byte, seq int) int {
	t.Helper()
	if seq < 0 {
		return 0
	}
	for i, rec := range journal[1:] {
		var e Event
		if json.Unmarshal(rec, &e) == nil && e.Seq == seq {
			return i + 2
		}
	}
	t.Fatalf("no journal record holds event %d", seq)
	return 0
}

// cutStateDir writes a state dir holding the given snapshot file and the
// journal cut to its first n records — what a power cut that kept exactly
// that prefix leaves.
func cutStateDir(t *testing.T, snap []byte, journal [][]byte, n int) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteAtomic(filepath.Join(dst, journalFile), journal[:n]); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestPrefixRecoverySweep freezes a fleet mid-batch — sessions finished,
// one retried, two in flight, two never admitted — and recovers from what a
// power cut at any instant after the batch was submitted leaves: every
// journal prefix from the last Submit's record to everything written, each
// with the snapshot file as it stood while that prefix was the whole
// journal, and each prefix also with the snapshot file as it stood at the
// freeze, which may be ahead of the surviving tail. Starting at the last
// Submit fixes the sweep's extent, which the durable frontier (what the
// commit points' fsyncs covered, wherever the two workers' last commit
// point happened to land) does not. At each pairing a power cut leaves no
// session whose Submit returned is lost, finished ones keep their journaled
// outcome and are not run again, unfinished ones are re-admitted exactly
// once as the next attempt, and the store holds exactly the prefix's
// commits. With snapshots written mid-run the same holds, and no snapshot
// ever vouches for a record past the journal's end or, at the freeze, past
// the durable frontier: the journal is committed before a snapshot may
// vouch for it. Paired with a prefix no cut leaves it with, the frozen
// snapshot still loses no session, runs no finished one again and drops no
// committed key.
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
	frontier := &durableFrontier{snap: filepath.Join(dir, snapshotFile)}
	frontier.log.Store(hookJournal(t, f, frontier.hook))
	frontier.base = frontier.log.Load().Records()

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
	from := frontier.log.Load().Records() // every Submit has returned
	start()
	defer func() {
		close(release)
		f.Drain()
		f.Close()
	}()
	<-entered
	<-entered // both workers are parked: nothing journals any more

	journal, sal, err := wal.ReadAll(filepath.Join(dir, journalFile))
	if err != nil || !sal.Clean() {
		t.Fatalf("read the frozen journal: %v (%s)", err, sal)
	}
	durable := frontier.records()
	if durable < 1 || durable > len(journal) {
		t.Fatalf("durable frontier %d outside the journal's %d records", durable, len(journal))
	}
	t.Logf("%d records written, %d durable: sweeping %d prefixes from %d", len(journal), durable, len(journal)-from+1, from)
	if durable == len(journal) {
		t.Fatal("nothing written past the last commit point; a cut at the freeze leaves one prefix")
	}

	// Submit returned for every session, so each queued record is durable.
	atFrontier, _ := readPrefix(t, journal[:durable])
	for _, id := range submitted {
		if s := atFrontier[id]; s == nil || !s.queued {
			t.Fatalf("session %d: Submit returned but its queued record is past the durable frontier", id)
		}
	}
	// The frozen state really has every kind of session in it.
	full, _ := readPrefix(t, journal)
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
	// Commit before snapshot: the watermark the snapshot vouches for is
	// inside the durable prefix, so no prefix a cut at the freeze could
	// leave is behind it.
	snap, err := readSnap(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snapEvery < 1<<30 && snap.seq < 0 {
		t.Fatal("no snapshot was written mid-run; lower SnapshotEvery")
	}
	if w := recordOf(t, journal, snap.seq); w > durable {
		t.Fatalf("snapshot watermark %d is record %d, past the durable frontier %d", snap.seq, w, durable)
	}
	frozenSnap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	// recoverCut recovers a state dir holding snapFile and the journal's
	// first n records, and checks it against what that prefix says. A
	// pairing no power cut leaves (reachable false) may hold a snapshot
	// newer than the surviving journal; recovery from it must still lose no
	// session, run no finished one again and keep every committed key, but
	// the snapshot may vouch past the journal's end and hold later commits.
	recoverCut := func(t *testing.T, snapFile []byte, n int, reachable bool) {
		want, wantKeys := readPrefix(t, journal[:n])
		cut := cutStateDir(t, snapFile, journal, n)
		cs, err := readSnap(cut)
		if err != nil {
			t.Fatal(err)
		}
		if w := recordOf(t, journal, cs.seq); reachable && w > n {
			t.Fatalf("the snapshot on disk at this cut vouches for record %d, past the journal's end", w)
		}

		// The store, before recovery starts running sessions on it.
		st, err := readState(cut)
		if err != nil {
			t.Fatal(err)
		}
		if reachable && len(st.entries) != len(wantKeys) {
			t.Fatalf("recovered store has %d entries, the prefix committed %d", len(st.entries), len(wantKeys))
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
		records := make(map[int]RecoveredSession)
		for _, r := range rec.Records {
			records[r.OldID] = r
		}
		readmitted := make(map[*Session]int)
		for _, id := range submitted {
			r, ok := records[id]
			if !ok {
				t.Fatalf("session %d lost: no recovery record", id)
			}
			w := want[id]
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

	// Each prefix is paired with the snapshot file on disk when the journal
	// held exactly n records (a cut at that instant) and with the frozen one.
	// A power cut leaves the frozen file with the prefix if a cut at the
	// freeze could (n from the durable frontier up; the file may hold store
	// and scheduler state captured after record n was written) or if it was
	// already on disk when the journal held n records. Every other pairing
	// is checked as one no cut leaves. The durable frontier lands wherever
	// the two workers' last commit point happened to, so it decides how a
	// pairing is checked, never which pairings are.
	for n := from; n <= len(journal); n++ {
		t.Run(fmt.Sprintf("records=%d", n), func(t *testing.T) {
			t.Parallel() // each recovers its own copies of the state dir
			if n < len(journal) {
				t.Run("snapshot=at-cut", func(t *testing.T) { recoverCut(t, frontier.snapshotAt(n), n, true) })
			}
			t.Run("snapshot=at-freeze", func(t *testing.T) {
				reachable := n >= durable || bytes.Equal(frozenSnap, frontier.snapshotAt(n))
				recoverCut(t, frozenSnap, n, reachable)
			})
		})
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
