package wal

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
)

// epochCaller is the shape of one user of the epoch roll: how it stamps a
// file with an epoch, how it reads the stamp back, and what it seeds the
// staged journal with before publishing.
type epochCaller struct {
	name  string
	stamp func(role string, epoch int) []byte
	epoch func(payload []byte) int
	seed  [][]byte
}

var epochCallers = []epochCaller{
	{
		// The fleet: int epochs in a role-tagged meta record, and a staged
		// journal re-seeded with the unfinished sessions' history.
		name: "fleet-shaped",
		stamp: func(role string, epoch int) []byte {
			b, _ := json.Marshal(map[string]any{"wal": role, "epoch": epoch, "seq": -1})
			return b
		},
		epoch: func(p []byte) int {
			var m struct{ Epoch int }
			json.Unmarshal(p, &m)
			return m.Epoch
		},
		seed: [][]byte{[]byte(`{"type":"queued","session":3}`), []byte(`{"type":"queued","session":4}`)},
	},
	{
		// The store daemon: uint64 epochs in an op record, nothing to seed.
		name: "stored-shaped",
		stamp: func(_ string, epoch int) []byte {
			b, _ := json.Marshal(map[string]any{"op": "epoch", "epoch": uint64(epoch)})
			return b
		},
		epoch: func(p []byte) int {
			var m struct{ Epoch uint64 }
			json.Unmarshal(p, &m)
			return int(m.Epoch)
		},
	},
}

// fileEpoch reads the epoch stamp (first record) of a state file; a
// missing or empty file is epoch 0.
func fileEpoch(c epochCaller, path string) int {
	recs, _, err := ReadAll(path)
	if err != nil || len(recs) == 0 {
		return 0
	}
	return c.epoch(recs[0])
}

// TestEpochRollCrashPoints kills an epoch roll at each point of its
// sequence and asserts the pairing recovery finds: the new snapshot over
// the old journal (SnapshotAhead, the old journal's records all still
// readable) at every instant before the rename, both at the new epoch
// (SameEpoch, the seed inside the journal) from the rename on. There is no
// instant with a missing, empty or half-stamped live journal.
func TestEpochRollCrashPoints(t *testing.T) {
	errDie := errors.New("power cut")
	type point struct {
		name        string
		failWrite   int // fail the staged journal's Nth write (0 = never)
		seed        bool
		publish     bool
		want        Relation
		wantJournal int // epoch the live journal carries afterwards
	}
	points := []point{
		{name: "after snapshot write", failWrite: 1, want: SnapshotAhead, wantJournal: 1},
		{name: "after stage stamp", want: SnapshotAhead, wantJournal: 1},
		{name: "after seed", seed: true, want: SnapshotAhead, wantJournal: 1},
		{name: "after rename", seed: true, publish: true, want: SameEpoch, wantJournal: 2},
	}
	for _, c := range epochCallers {
		for _, pt := range points {
			t.Run(c.name+"/"+pt.name, func(t *testing.T) {
				dir := t.TempDir()
				snap := filepath.Join(dir, "snapshot")
				roll := Roll{Live: filepath.Join(dir, "journal"), Stage: filepath.Join(dir, "journal.next"),
					Config: Config{Sync: SyncAlways}}

				// Epoch 1, fully published, with two ops in its journal.
				log, err := roll.Begin(c.stamp("journal", 1), func() error {
					return WriteAtomic(snap, [][]byte{c.stamp("snapshot", 1)})
				})
				if err != nil {
					t.Fatal(err)
				}
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

				// Roll to epoch 2 and die at the chosen point.
				writes := 0
				roll.Config.FaultHook = func(op string) error {
					if op == "write" {
						if writes++; writes == pt.failWrite {
							return errDie
						}
					}
					return nil
				}
				log, err = roll.Begin(c.stamp("journal", 2), func() error {
					return WriteAtomic(snap, [][]byte{c.stamp("snapshot", 2), []byte(`{"entry":"folded a+b"}`)})
				})
				if pt.failWrite > 0 {
					if !errors.Is(err, errDie) {
						t.Fatalf("Begin = %v, want the injected fault", err)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if pt.seed {
						for _, rec := range c.seed {
							if err := log.Append(rec); err != nil {
								t.Fatal(err)
							}
						}
					}
					if pt.publish {
						if err := roll.Publish(log); err != nil {
							t.Fatal(err)
						}
					}
					log.Abort()
				}

				// What recovery reads.
				if got := fileEpoch(c, snap); got != 2 {
					t.Fatalf("snapshot epoch %d, want 2", got)
				}
				jEpoch := fileEpoch(c, roll.Live)
				if jEpoch != pt.wantJournal {
					t.Fatalf("live journal epoch %d, want %d", jEpoch, pt.wantJournal)
				}
				if got := Relate(2, jEpoch); got != pt.want {
					t.Fatalf("relation %d, want %d", got, pt.want)
				}
				recs, sal, err := ReadAll(roll.Live)
				if err != nil || !sal.Clean() {
					t.Fatalf("live journal unreadable or damaged: %v, %s", err, sal)
				}
				wantTail := oldOps
				if pt.publish {
					wantTail = c.seed
				}
				if len(recs) != 1+len(wantTail) {
					t.Fatalf("live journal holds %d records, want stamp + %d", len(recs), len(wantTail))
				}
				for i, want := range wantTail {
					if string(recs[1+i]) != string(want) {
						t.Fatalf("live journal record %d = %s, want %s", 1+i, recs[1+i], want)
					}
				}

				// The next roll supersedes whatever the crash left staged.
				roll.Config.FaultHook = nil
				next := max(2, jEpoch) + 1
				log, err = roll.Begin(c.stamp("journal", next), func() error {
					return WriteAtomic(snap, [][]byte{c.stamp("snapshot", next)})
				})
				if err != nil {
					t.Fatalf("roll after the crash: %v", err)
				}
				if err := roll.Publish(log); err != nil {
					t.Fatal(err)
				}
				log.Abort()
				if s, j := fileEpoch(c, snap), fileEpoch(c, roll.Live); Relate(s, j) != SameEpoch || j != next {
					t.Fatalf("after the next roll: snapshot %d, journal %d, want both %d", s, j, next)
				}
			})
		}
	}
}

// TestRelate pins the three-way comparison for both epoch types in use.
func TestRelate(t *testing.T) {
	for _, c := range []struct {
		snap, journal int
		want          Relation
	}{{3, 3, SameEpoch}, {4, 3, SnapshotAhead}, {0, 3, JournalAhead}} {
		if got := Relate(c.snap, c.journal); got != c.want {
			t.Errorf("Relate(%d, %d) = %d, want %d", c.snap, c.journal, got, c.want)
		}
		if got := Relate(uint64(c.snap), uint64(c.journal)); got != c.want {
			t.Errorf("Relate(uint64 %d, %d) = %d, want %d", c.snap, c.journal, got, c.want)
		}
	}
}
