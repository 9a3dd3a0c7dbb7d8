// Example recovery walks the fleet's crash-safety story end to end:
//
//  1. A persisted fleet runs a batch of sessions, journaling every event
//     to a checksummed WAL and committing tuned profiles to the store.
//     Close rolls the WAL one last time: one journal file whose head holds
//     the store and scheduler state, followed by every session's records.
//  2. We simulate a crash: the journal is rewound to mid-run (as if the
//     process died there) and garbage is appended to its tail (a torn
//     final write).
//  3. RecoverFleet salvages the damaged file, restores the committed
//     profiles, and re-admits every session the "crash" interrupted; the
//     resumed sessions finish and warm-start from the recovered store.
//  4. Finally, a fleet pointed at a hopeless state dir shows graceful
//     degradation: persistence reports "degraded", sessions still finish.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rpg2"
	"rpg2/internal/wal"
)

func main() {
	dir, err := os.MkdirTemp("", "rpg2-recovery")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	m := rpg2.CascadeLake()

	// --- 1. A persisted run. FsyncAlways so every event is durable the
	// moment it is journaled, like a production deployment would choose.
	f := rpg2.NewFleet(rpg2.FleetConfig{
		Machine: m, Workers: 2,
		StateDir: dir, Fsync: rpg2.FsyncAlways,
	})
	var specs []rpg2.SessionSpec
	for i := 0; i < 8; i++ {
		bench := []string{"is", "cg", "randacc", "bfs"}[i%4]
		spec := rpg2.SessionSpec{Bench: bench, Seed: int64(i + 1)}
		if bench == "bfs" {
			spec.Input = "soc-gamma"
		}
		specs = append(specs, spec)
	}
	if _, err := f.Run(specs); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("ran %d sessions into %s\n", len(specs), dir)

	// --- 2. Manufacture a crash. Rewind the journal to just after the
	// second session finished (every later record "never happened") and
	// tear the tail. There is no second file to delete: the store's entries
	// are the journal's head.
	journal := filepath.Join(dir, "journal.wal")
	recs, _, err := wal.ReadAll(journal)
	if err != nil {
		log.Fatal(err)
	}
	cut := len(recs)
	done := 0
	for i, rec := range recs {
		if !bytes.Contains(rec, []byte(`"session-done"`)) && !bytes.Contains(rec, []byte(`"session-failed"`)) {
			continue
		}
		done++
		if done == 2 { // keep two finished sessions, interrupt the rest
			cut = i + 1
			break
		}
	}
	if err := wal.WriteAtomic(journal, recs[:cut]); err != nil {
		log.Fatal(err)
	}
	jf, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		log.Fatal(err)
	}
	jf.WriteString("fffffff0 9 torn-writ") // a torn final record
	jf.Close()
	fmt.Printf("simulated crash: journal rewound to %d of %d records, tail torn\n",
		cut, len(recs))

	// --- 3. Recover. Salvage keeps the valid prefix, the committed store
	// entries are rebuilt from the journal's head, and interrupted sessions
	// are re-admitted; draining finishes them.
	f2, rec, err := rpg2.RecoverFleet(dir, rpg2.FleetConfig{Machine: m, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rec.Summary())
	f2.Drain()
	warm := 0
	for _, s := range rec.Requeued {
		if !s.State().Terminal() {
			log.Fatalf("recovered session %d never finished: %v", s.ID, s.State())
		}
		if s.Warm() {
			warm++
		}
	}
	snap := f2.Snapshot()
	fmt.Printf("resumed: %d sessions finished (%d warm-started from recovered profiles), %d store entries live\n",
		len(rec.Requeued), warm, snap.StoreEntries)
	f2.Close()

	// --- 4. Graceful degradation: an unusable state dir (a path through a
	// regular file) cannot hold a WAL. The fleet still runs — in-memory —
	// and the snapshot says so instead of hiding it.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		log.Fatal(err)
	}
	f3 := rpg2.NewFleet(rpg2.FleetConfig{
		Machine: m, Workers: 1,
		StateDir: filepath.Join(blocker, "impossible"),
	})
	if _, err := f3.Run([]rpg2.SessionSpec{{Bench: "is", Seed: 99}}); err != nil {
		log.Fatal(err)
	}
	dsnap := f3.Snapshot()
	fmt.Printf("degraded fleet: persistence=%s (%s), %d completed anyway\n",
		dsnap.Persistence, dsnap.PersistenceError, dsnap.Completed)
	f3.Close()
}
