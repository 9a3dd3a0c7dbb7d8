package wal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// epochCaller is the shape of one user of the epoch roll: how it stamps a
// journal with an epoch, how it reads the stamp back, and what it writes
// into the staged journal before publishing — the head, then the seed.
type epochCaller struct {
	name  string
	stamp func(epoch int) []byte
	epoch func(payload []byte) int
	head  [][]byte
	seed  [][]byte
}

var epochCallers = []epochCaller{
	{
		// The fleet: int epochs in a role-tagged meta record, the scheduler
		// and store at the head, and the unfinished sessions' history.
		name: "fleet-shaped",
		stamp: func(epoch int) []byte {
			b, _ := json.Marshal(map[string]any{"wal": "journal", "epoch": epoch, "seq": 5})
			return b
		},
		epoch: func(p []byte) int {
			var m struct{ Epoch int }
			json.Unmarshal(p, &m)
			return m.Epoch
		},
		head: [][]byte{[]byte(`{"sched":{"clock":1.5}}`), []byte(`{"key":{"bench":"is"},"entry":{"distance":4}}`)},
		seed: [][]byte{[]byte(`{"type":"queued","session":3}`), []byte(`{"type":"queued","session":4}`)},
	},
	{
		// The store daemon: uint64 epochs in an op record, the store at the
		// head, nothing to seed.
		name: "stored-shaped",
		stamp: func(epoch int) []byte {
			b, _ := json.Marshal(map[string]any{"op": "epoch", "epoch": uint64(epoch)})
			return b
		},
		epoch: func(p []byte) int {
			var m struct{ Epoch uint64 }
			json.Unmarshal(p, &m)
			return int(m.Epoch)
		},
		head: [][]byte{[]byte(`{"op":"entry","key":{"bench":"is"},"entry":{"distance":4}}`)},
	},
}

// fileEpoch reads the epoch stamp (first record) of a journal; a missing
// or empty file is epoch 0.
func fileEpoch(c epochCaller, path string) int {
	recs, _, err := ReadAll(path)
	if err != nil || len(recs) == 0 {
		return 0
	}
	return c.epoch(recs[0])
}

// TestEpochRollCrashPoints kills an epoch roll at each point of its
// sequence — the stage stamped, the head written, the seed written, the
// rename done — and asserts the one journal recovery reads: the old one,
// whole, at every instant before the rename, the new one (stamp, head,
// seed) from the rename on. There is no instant with a missing, empty or
// half-stamped live journal, and whatever stage file a crash leaves, the
// next roll replaces it.
func TestEpochRollCrashPoints(t *testing.T) {
	type point struct {
		name       string
		head, seed bool
		publish    bool
		wantNew    bool
	}
	points := []point{
		{name: "after stage stamp"},
		{name: "after snapshot write", head: true},
		{name: "after seed", head: true, seed: true},
		{name: "after rename", head: true, seed: true, publish: true, wantNew: true},
	}
	for _, c := range epochCallers {
		for _, pt := range points {
			t.Run(c.name+"/"+pt.name, func(t *testing.T) {
				dir := t.TempDir()
				roll := Roll{Live: filepath.Join(dir, "journal"), Stage: filepath.Join(dir, "journal.next"),
					Config: Config{Sync: SyncAlways}}
				write := func(log *Log, recs [][]byte) {
					t.Helper()
					for _, rec := range recs {
						if err := log.Write(rec); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Epoch 1, fully published, with two ops after its head.
				log, err := roll.Begin(c.stamp(1))
				if err != nil {
					t.Fatal(err)
				}
				write(log, c.head)
				if err := roll.Publish(log); err != nil {
					t.Fatal(err)
				}
				oldOps := [][]byte{[]byte(`{"op":"a"}`), []byte(`{"op":"b"}`)}
				for _, op := range oldOps {
					if err := log.Append(op); err != nil {
						t.Fatal(err)
					}
				}
				log.Abort()
				old, _, err := ReadAll(roll.Live)
				if err != nil {
					t.Fatal(err)
				}

				// Roll to epoch 2 and die at the chosen point.
				log, err = roll.Begin(c.stamp(2))
				if err != nil {
					t.Fatal(err)
				}
				if pt.head {
					write(log, c.head)
				}
				if pt.seed {
					write(log, c.seed)
				}
				if pt.publish {
					if err := roll.Publish(log); err != nil {
						t.Fatal(err)
					}
				}
				log.Abort()

				// What recovery reads: one journal, never a mix.
				recs, sal, err := ReadAll(roll.Live)
				if err != nil || !sal.Clean() {
					t.Fatalf("live journal unreadable or damaged: %v, %s", err, sal)
				}
				want := old
				if pt.wantNew {
					want = append(append([][]byte{c.stamp(2)}, c.head...), c.seed...)
				}
				if len(recs) != len(want) {
					t.Fatalf("live journal holds %d records, want %d", len(recs), len(want))
				}
				for i := range want {
					if string(recs[i]) != string(want[i]) {
						t.Fatalf("live journal record %d = %s, want %s", i, recs[i], want[i])
					}
				}
				if _, err := os.Stat(roll.Stage); pt.publish == (err == nil) {
					t.Fatalf("stage file after the crash: %v (published %v)", err, pt.publish)
				}

				// The next roll supersedes whatever the crash left staged.
				next := fileEpoch(c, roll.Live) + 1
				log, err = roll.Begin(c.stamp(next))
				if err != nil {
					t.Fatalf("roll after the crash: %v", err)
				}
				if got := log.Records(); got != 1 {
					t.Fatalf("the next stage holds %d records, want only its stamp", got)
				}
				if err := roll.Publish(log); err != nil {
					t.Fatal(err)
				}
				log.Abort()
				if j := fileEpoch(c, roll.Live); j != next {
					t.Fatalf("after the next roll: journal epoch %d, want %d", j, next)
				}
			})
		}
	}
}

// TestStagedCommitWaitsForPublish: a record written to a staged journal is
// on disk under the stage's name, not in the journal recovery reads, so a
// Commit covering it returns only once Publish has renamed the stage into
// place — and reports the log closed if the stage is abandoned instead.
func TestStagedCommitWaitsForPublish(t *testing.T) {
	dir := t.TempDir()
	roll := Roll{Live: filepath.Join(dir, "journal"), Stage: filepath.Join(dir, "journal.next"),
		Config: Config{Sync: SyncAlways}}
	log, err := roll.Begin([]byte(`{"epoch":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Write([]byte(`{"op":"acked"}`)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- log.Commit() }()
	select {
	case err := <-done:
		t.Fatalf("Commit returned (%v) before the stage was published", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := roll.Publish(log); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Commit after the publish: %v", err)
	}
	if got := payloadsOf(t, roll.Live); len(got) != 2 || got[1] != `{"op":"acked"}` {
		t.Fatalf("published journal = %v", got)
	}
	if err := log.Commit(); err != nil {
		t.Fatalf("Commit on a published log: %v", err)
	}
	log.Abort()

	// An abandoned stage: its waiting Commit is told the log closed.
	log, err = roll.Begin([]byte(`{"epoch":2}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- log.Commit() }()
	time.Sleep(10 * time.Millisecond)
	log.Close()
	if err := <-done; err != errClosed {
		t.Fatalf("Commit on an abandoned stage = %v, want errClosed", err)
	}
	if err := roll.Publish(log); err == nil {
		t.Fatal("Publish renamed a closed stage into place")
	}
}
