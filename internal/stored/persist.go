package stored

// Persistence for the store daemon, on internal/wal's checksummed framing,
// one file per state dir:
//
//	store-journal.wal  epoch stamp + one entry record per live profile
//	                   (the head) + one op record per accepted mutation
//
// Every snapshot is an epoch roll (wal.Roll): a fresh journal staged
// beside the live one with the next stamp and the whole store as its head,
// then renamed over it. A crash before the rename leaves the old journal
// whole, one after it the new one; a leftover stage file
// (store-journal.next) is never read and the next roll deletes it. The
// journal is never removed or truncated in place, so there is no instant
// at which it is missing or headerless.
//
// Fold order equals commit order because Server.mu spans each store
// mutation and its journal write, so replaying ops in sequence lands on
// the same winner every live race resolved to. Under fsync-always a
// mutation is written under Server.mu and committed after it, before the
// handler replies, so concurrent requests share fsyncs.
//
// Refunds are deliberately not journaled: they move only reuse budget,
// and Import (recovery's install path) grants fresh budgets anyway.
//
// A disk error degrades persistence — the daemon keeps serving from
// memory, stops journaling, and reports the failure via Degraded and the
// stats endpoint's health. No re-arm: unlike the fleet's persist lane, a
// shared store that silently resumed journaling after missing ops would
// recover to a hole-ridden state, which is worse than recovering to the
// last good roll.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rpg2/internal/store"
	"rpg2/internal/wal"
)

const (
	journalFile      = "store-journal.wal"
	journalStageFile = "store-journal.next"
	// legacySnapshotFile is the two-file layout's snapshot, which this
	// binary no longer reads.
	legacySnapshotFile = "store-snapshot.wal"
)

// errLegacyStateDir refuses a state dir holding the two-file layout: its
// entries live in a file recovery would silently skip.
var errLegacyStateDir = errors.New("stored: state dir holds an older binary's snapshot layout (" + legacySnapshotFile + "), which this binary cannot read: " +
	"move the entries over with the previous binary's GET /v1/store/export into this one's POST /v1/store/import, or pass -fresh to discard the state")

// opRecord is one WAL record: the epoch stamp ("epoch"), a head entry
// ("entry"), or a journaled mutation ("commit", "invalidate").
type opRecord struct {
	Op    string       `json:"op"`
	Epoch uint64       `json:"epoch,omitempty"`
	Key   store.Key    `json:"key,omitempty"`
	Entry *store.Entry `json:"entry,omitempty"`
}

type persister struct {
	roll    wal.Roll
	every   int // mutations between epoch rolls
	epoch   uint64
	journal *wal.Log
	ops     int // journaled mutations since the last roll

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
	legacy := filepath.Join(cfg.StateDir, legacySnapshotFile)
	p := &persister{
		roll: wal.Roll{
			Live:   filepath.Join(cfg.StateDir, journalFile),
			Stage:  filepath.Join(cfg.StateDir, journalStageFile),
			Config: wal.Config{Sync: cfg.Fsync},
		},
		every: cfg.SnapshotEvery,
	}
	if cfg.Fresh {
		for _, path := range []string{legacy, p.roll.Live, p.roll.Stage} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return nil, nil, fmt.Errorf("stored: discard prior state: %w", err)
			}
		}
		return p, nil, nil
	}
	if _, err := os.Stat(legacy); err == nil {
		return nil, nil, fmt.Errorf("%w (%s)", errLegacyStateDir, cfg.StateDir)
	}

	epoch, recs, err := readLog(p.roll.Live)
	if err != nil {
		return nil, nil, err
	}
	state := make(map[store.Key]store.Entry)
	for _, rec := range recs {
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
	p.epoch = epoch

	entries := make([]store.KeyedEntry, 0, len(state))
	for k, e := range state {
		entries = append(entries, store.KeyedEntry{Key: k, Entry: e})
	}
	store.SortEntries(entries)
	p.recoveredEntries = len(entries)
	return p, entries, nil
}

// readLog reads the journal at path: its epoch stamp and its other records
// in order. A missing file is epoch 0 with no records; a salvaged tail
// keeps the valid prefix.
func readLog(path string) (uint64, []opRecord, error) {
	payloads, _, err := wal.ReadAll(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("stored: read journal: %w", err)
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

// snapshot rolls the epoch: a journal staged with the next stamp and the
// whole store as its head, published over the old one. Callers hold
// Server.mu (or are pre-serving).
func (p *persister) snapshot(entries []store.KeyedEntry) error {
	if p == nil || p.isDegraded() {
		return fmt.Errorf("stored: persistence degraded")
	}
	next := p.epoch + 1
	meta, _ := json.Marshal(opRecord{Op: "epoch", Epoch: next})
	log, err := p.roll.Begin(meta)
	if err != nil {
		return p.degrade(fmt.Errorf("stored: stage epoch %d: %w", next, err))
	}
	for i := range entries {
		raw, err := json.Marshal(opRecord{Op: "entry", Key: entries[i].Key, Entry: &entries[i].Entry})
		if err == nil {
			err = log.Write(raw)
		}
		if err != nil {
			log.Abort()
			return p.degrade(fmt.Errorf("stored: stage epoch %d head: %w", next, err))
		}
	}
	if err := p.roll.Publish(log); err != nil {
		log.Abort()
		return p.degrade(fmt.Errorf("stored: publish epoch %d journal: %w", next, err))
	}
	if p.journal != nil {
		// Every op the old journal holds is in the head just published, and
		// its name now belongs to the new file: nothing left to flush.
		p.journal.Abort()
	}
	p.journal = log
	p.epoch = next
	p.ops = 0
	return nil
}

// appendOp journals one accepted mutation and snapshots when due. Callers
// hold Server.mu, so the journal's order is the store's commit order. st
// is only exported if this append trips the snapshot threshold. Under
// fsync-always the record is only written: it returns the log the caller
// commits after releasing Server.mu, before it replies (nil when there is
// nothing to commit). The other policies keep their per-append schedule.
func (p *persister) appendOp(rec opRecord, st store.Store) *wal.Log {
	if p.isDegraded() || p.journal == nil {
		return nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		p.degrade(fmt.Errorf("stored: encode op: %w", err))
		return nil
	}
	log := p.journal
	appendRecord := log.Append
	if p.roll.Config.Sync == wal.SyncAlways {
		appendRecord = log.Write
	}
	if err := appendRecord(raw); err != nil {
		p.degrade(fmt.Errorf("stored: journal append: %w", err))
		return nil
	}
	p.ops++
	if p.ops >= p.every {
		// The roll's publish syncs the head that now holds this op.
		p.snapshot(st.Export())
		return nil
	}
	if p.roll.Config.Sync != wal.SyncAlways {
		return nil
	}
	return log
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
