// Journal sequence-number and streaming tests: the dense Seq contract is
// what lets a disconnected network consumer resume with no gap and no
// duplicate, and what keeps the WAL tee and the live stream describing
// the same history.
package fleet

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// requireDense asserts a seq list is exactly from, from+1, ..., to-1 —
// the no-gap, no-duplicate invariant every consumer leans on.
func requireDense(t *testing.T, seqs []int, from, to int) {
	t.Helper()
	if len(seqs) != to-from {
		t.Fatalf("saw %d events, want %d (seqs %v)", len(seqs), to-from, seqs)
	}
	for i, s := range seqs {
		if s != from+i {
			t.Fatalf("seq[%d] = %d, want %d: gap or duplicate", i, s, from+i)
		}
	}
}

// TestJournalSeqDenseUnderConcurrency: concurrent appenders still get
// dense sequence numbers, and the SetSink tee observes every event in
// exactly the order (and with exactly the Seq) the log records.
func TestJournalSeqDenseUnderConcurrency(t *testing.T) {
	j := NewJournal()
	var teed []int
	j.SetSink(func(e Event) { teed = append(teed, e.Seq) }) // sink runs under the journal lock

	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.add(Event{Type: "state", Session: w})
			}
		}(w)
	}
	wg.Wait()

	all := j.Events()
	seqs := make([]int, len(all))
	for i, e := range all {
		seqs[i] = e.Seq
	}
	requireDense(t, seqs, 0, writers*each)
	requireDense(t, teed, 0, writers*each)

	// EventsSince(-1) is the whole log; a mid-log cursor resumes exactly
	// after itself.
	if got := j.EventsSince(-1); len(got) != len(all) {
		t.Fatalf("EventsSince(-1) = %d events, want %d", len(got), len(all))
	}
	tail := j.EventsSince(100)
	var tailSeqs []int
	for _, e := range tail {
		tailSeqs = append(tailSeqs, e.Seq)
	}
	requireDense(t, tailSeqs, 101, writers*each)
	if got := j.EventsSince(writers*each - 1); got != nil {
		t.Fatalf("EventsSince(last) returned %d events, want none", len(got))
	}
}

// TestEventsSinceResumeAcrossInterruption: a consumer that drops its
// wake channel mid-stream and comes back with its last cursor replays the
// remainder with no gap and no duplicate, even while appends continue.
func TestEventsSinceResumeAcrossInterruption(t *testing.T) {
	j := NewJournal()
	const total = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			j.add(Event{Type: "state", Session: i})
		}
	}()

	// First connection: consume until we have at least a third, then
	// "disconnect" (Unwatch, forget everything but the cursor).
	var seen []int
	cursor := -1
	wake := j.Watch()
	for len(seen) < total/3 {
		for _, e := range j.EventsSince(cursor) {
			seen = append(seen, e.Seq)
			cursor = e.Seq
		}
		if len(seen) < total/3 {
			<-wake
		}
	}
	j.Unwatch(wake)

	<-done // the rest of the log lands while we are disconnected

	// Second connection resumes from the cursor.
	for _, e := range j.EventsSince(cursor) {
		seen = append(seen, e.Seq)
		cursor = e.Seq
	}
	requireDense(t, seen, 0, total)
}

// TestStreamMatchesWALTee: on a persisted fleet the WAL is a SetSink tee
// off the same journal the stream reads. After a full run, the replayed
// WAL and EventsSince(-1) must describe the identical dense history —
// proving the tee loses nothing and the stream invents nothing.
func TestStreamMatchesWALTee(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 2,
		StateDir: dir, Fsync: wal.SyncOnClose, SnapshotEvery: 1 << 30})

	// Stream concurrently with the run, the way a network consumer would.
	var streamed []int
	streamDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(streamDone)
		cursor := -1
		wake := f.Journal().Watch()
		defer f.Journal().Unwatch(wake)
		for {
			for _, e := range f.Journal().EventsSince(cursor) {
				streamed = append(streamed, e.Seq)
				cursor = e.Seq
			}
			select {
			case <-stop:
				for _, e := range f.Journal().EventsSince(cursor) {
					streamed = append(streamed, e.Seq)
					cursor = e.Seq
				}
				return
			case <-wake:
			}
		}
	}()

	for i, spec := range crashPairs {
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	close(stop)
	<-streamDone

	total := len(f.Journal().Events())
	requireDense(t, streamed, 0, total)

	// The epoch's journal as the tee wrote it, before Close's final roll
	// keeps only what a restart needs.
	recs, salvage, err := wal.ReadAll(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !salvage.Clean() {
		t.Fatalf("the tee left a damaged WAL: %s", salvage)
	}
	f.Close()
	if _, salvage, err := wal.ReadAll(filepath.Join(dir, journalFile)); err != nil || !salvage.Clean() {
		t.Fatalf("clean close left a damaged WAL: %v %s", err, salvage)
	}
	var teed []int
	for _, rec := range recs {
		var e Event
		if err := json.Unmarshal(rec, &e); err != nil {
			t.Fatalf("WAL record does not decode: %v", err)
		}
		if e.Type == "" {
			continue // the epoch's stamp and head, not journal events
		}
		teed = append(teed, e.Seq)
	}
	requireDense(t, teed, 0, total)
}
