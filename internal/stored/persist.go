package stored

// Persistence for the store daemon, on internal/wal's checksummed framing:
//
//	store-snapshot.wal  meta{epoch E} + one entry record per live profile
//	store-journal.wal   meta{epoch E} + one op record per accepted mutation
//
// Every snapshot is an epoch roll (wal.Roll): the whole store written
// atomically under epoch E+1, an empty journal stamped E+1 staged beside
// the live one, then renamed over it. The stamp makes the pair
// crash-consistent without cross-file coordination: recovery folds the
// journal over the snapshot only when wal.Relate says their epochs match —
// a journal one epoch behind was exported into the newer snapshot already.
// The journal is never removed or truncated in place, so there is no
// instant at which it is missing or headerless.
//
// Fold order equals commit order because Server.mu spans each store
// mutation and its journal append, so replaying ops in sequence lands on
// the same winner every live race resolved to.
//
// Refunds are deliberately not journaled: they move only reuse budget,
// and Import (recovery's install path) grants fresh budgets anyway.
//
// A disk error degrades persistence — the daemon keeps serving from
// memory, stops journaling, and reports the failure via Degraded and the
// stats endpoint's health. No re-arm: unlike the fleet's persist lane, a
// shared store that silently resumed journaling after missing ops would
// recover to a hole-ridden state, which is worse than recovering to the
// last good snapshot. (ROADMAP notes the possible snapshot-on-rearm
// upgrade.)

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rpg2/internal/store"
	"rpg2/internal/wal"
)

const (
	snapshotFile     = "store-snapshot.wal"
	journalFile      = "store-journal.wal"
	journalStageFile = "store-journal.next"
)

// opRecord is one WAL record: the epoch meta ("epoch"), a snapshot entry
// ("entry"), or a journaled mutation ("commit", "invalidate").
type opRecord struct {
	Op    string       `json:"op"`
	Epoch uint64       `json:"epoch,omitempty"`
	Key   store.Key    `json:"key,omitempty"`
	Entry *store.Entry `json:"entry,omitempty"`
}

type persister struct {
	dir     string
	roll    wal.Roll
	every   int // mutations between snapshots
	epoch   uint64
	journal *wal.Log
	ops     int // journaled mutations since the last snapshot

	// recoveredEntries is what openPersister folded out of the state dir.
	recoveredEntries int

	// degraded state is read by Degraded()/stats concurrently with
	// appendOp under Server.mu, so it has its own lock.
	degMu  sync.Mutex
	degErr error
}

// openPersister recovers prior state from cfg.StateDir (unless Fresh) and
// returns the persister plus the folded entries to import. The journal is
// not opened here: the caller takes its first snapshot immediately after
// importing, and snapshot() rolls the epoch and publishes the fresh journal.
func openPersister(cfg Config) (*persister, []store.KeyedEntry, error) {
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("stored: create state dir: %w", err)
	}
	snapPath := filepath.Join(cfg.StateDir, snapshotFile)
	jrnlPath := filepath.Join(cfg.StateDir, journalFile)
	p := &persister{
		dir: cfg.StateDir,
		roll: wal.Roll{
			Live:   jrnlPath,
			Stage:  filepath.Join(cfg.StateDir, journalStageFile),
			Config: wal.Config{Sync: cfg.Fsync},
		},
		every: cfg.SnapshotEvery,
	}
	if cfg.Fresh {
		for _, path := range []string{snapPath, jrnlPath, p.roll.Stage} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return nil, nil, fmt.Errorf("stored: discard prior state: %w", err)
			}
		}
		return p, nil, nil
	}

	snapEpoch, snap, err := readLog(snapPath, "snapshot")
	if err != nil {
		return nil, nil, err
	}
	jrnlEpoch, ops, err := readLog(jrnlPath, "journal")
	if err != nil {
		return nil, nil, err
	}
	if wal.Relate(snapEpoch, jrnlEpoch) != wal.SameEpoch {
		ops = nil // a stale journal's ops are already inside the snapshot
	}
	state := make(map[store.Key]store.Entry)
	for _, rec := range append(snap, ops...) {
		switch rec.Op {
		case "entry", "commit":
			if rec.Entry != nil {
				state[rec.Key] = *rec.Entry
			}
		case "invalidate":
			// Unguarded on replay: the gen guard already ran live against
			// the generation the op was issued for.
			delete(state, rec.Key)
		}
	}
	p.epoch = max(snapEpoch, jrnlEpoch)

	entries := make([]store.KeyedEntry, 0, len(state))
	for k, e := range state {
		entries = append(entries, store.KeyedEntry{Key: k, Entry: e})
	}
	store.SortEntries(entries)
	p.recoveredEntries = len(entries)
	return p, entries, nil
}

// readLog reads one state file (what names it in errors): its epoch stamp
// and its other records in order. A missing file is epoch 0 with no
// records; a salvaged tail keeps the valid prefix.
func readLog(path, what string) (uint64, []opRecord, error) {
	payloads, _, err := wal.ReadAll(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("stored: read %s: %w", what, err)
	}
	var epoch uint64
	var recs []opRecord
	for _, raw := range payloads {
		var rec opRecord
		if json.Unmarshal(raw, &rec) != nil {
			continue // checksummed frame, so this is a version skew, not rot
		}
		if rec.Op == "epoch" {
			epoch = rec.Epoch
			continue
		}
		recs = append(recs, rec)
	}
	return epoch, recs, nil
}

// snapshot rolls the epoch: the whole store durably under epoch E+1, then
// an empty E+1 journal published over the old one. Callers hold Server.mu
// (or are pre-serving).
func (p *persister) snapshot(entries []store.KeyedEntry) error {
	if p == nil || p.isDegraded() {
		return fmt.Errorf("stored: persistence degraded")
	}
	next := p.epoch + 1
	payloads := make([][]byte, 0, len(entries)+1)
	meta, _ := json.Marshal(opRecord{Op: "epoch", Epoch: next})
	payloads = append(payloads, meta)
	for i := range entries {
		raw, err := json.Marshal(opRecord{Op: "entry", Key: entries[i].Key, Entry: &entries[i].Entry})
		if err != nil {
			return p.degrade(fmt.Errorf("stored: encode snapshot entry: %w", err))
		}
		payloads = append(payloads, raw)
	}
	log, err := p.roll.Begin(meta, func() error {
		return wal.WriteAtomic(filepath.Join(p.dir, snapshotFile), payloads)
	})
	if err != nil {
		return p.degrade(fmt.Errorf("stored: stage epoch %d: %w", next, err))
	}
	if err := p.roll.Publish(log); err != nil {
		log.Abort()
		return p.degrade(fmt.Errorf("stored: publish epoch %d journal: %w", next, err))
	}
	if p.journal != nil {
		// Every op the old journal holds is in the snapshot just written,
		// and its name now belongs to the new file: nothing left to flush.
		p.journal.Abort()
	}
	p.journal = log
	p.epoch = next
	p.ops = 0
	return nil
}

// appendOp journals one accepted mutation and snapshots when due. Callers
// hold Server.mu, so the journal's order is the store's commit order. st
// is only exported if this append trips the snapshot threshold.
func (p *persister) appendOp(rec opRecord, st store.Store) {
	if p.isDegraded() || p.journal == nil {
		return
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		p.degrade(fmt.Errorf("stored: encode op: %w", err))
		return
	}
	if err := p.journal.Append(raw); err != nil {
		p.degrade(fmt.Errorf("stored: journal append: %w", err))
		return
	}
	p.ops++
	if p.ops >= p.every {
		p.snapshot(st.Export())
	}
}

func (p *persister) close() {
	if p.journal != nil {
		p.journal.Close()
		p.journal = nil
	}
}

func (p *persister) degrade(err error) error {
	p.degMu.Lock()
	if p.degErr == nil {
		p.degErr = err
	}
	p.degMu.Unlock()
	return err
}

func (p *persister) isDegraded() bool {
	_, bad := p.degradedErr()
	return bad
}

func (p *persister) degradedErr() (string, bool) {
	p.degMu.Lock()
	defer p.degMu.Unlock()
	if p.degErr == nil {
		return "", false
	}
	return p.degErr.Error(), true
}
