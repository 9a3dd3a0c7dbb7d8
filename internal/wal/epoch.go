package wal

import (
	"cmp"
	"os"
	"path/filepath"
)

// Epoch rolls. A journal only means something relative to the snapshot it
// rolls forward from, so both carry an epoch stamp (the caller's record
// format; this package never parses it) and every fresh start — boot,
// recovery, re-arm, a periodic store snapshot — moves the pair to E+1 in
// one order: the caller's snapshot file(s) stamped E+1, written atomically
// while the epoch-E journal is untouched (Begin); a fresh journal staged
// beside the live one and stamped E+1 (Begin); whatever the caller seeds
// it with; sync, rename over the live journal, fsync the directory
// (Publish). A crash leaves one of two pairings, which Relate names: the
// E+1 snapshot over the epoch-E journal before the rename, both at E+1
// after it. The reverse order — reset the journal, then snapshot — would
// let a crash between the two lose both. DESIGN.md §11.3 has the table.

// Roll names the two paths one journal's epochs move through, and how the
// staged journal is opened.
type Roll struct {
	// Live is the journal recovery reads; Stage is where a fresh epoch's
	// journal grows until Publish renames it over Live.
	Live, Stage string
	// Config is the staged journal's durability policy and fault hook.
	Config Config
}

// Begin runs steps 1 and 2: the caller's snapshot writer, then a fresh
// journal at Stage holding only stamp. The returned log is open for the
// caller's seeding; the live journal has not been touched, so on any error
// (or a crash) the state dir still recovers as it would have before.
func (r Roll) Begin(stamp []byte, writeSnapshot func() error) (*Log, error) {
	if err := writeSnapshot(); err != nil {
		return nil, err
	}
	// A leftover stage file is a roll that died before Publish, superseded.
	if err := os.Remove(r.Stage); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	log, _, err := Open(r.Stage, r.Config)
	if err != nil {
		return nil, err
	}
	if err := log.Append(stamp); err != nil {
		log.Abort()
		return nil, err
	}
	return log, nil
}

// Publish runs step 4 for a log Begin returned: flush it, then atomically
// rename it over the live journal. The open log keeps appending to the
// same inode — only the name changes — so everything appended before the
// publish is inside the file when it takes the journal's name.
func (r Roll) Publish(log *Log) error {
	if err := log.Sync(); err != nil {
		return err
	}
	if err := os.Rename(r.Stage, r.Live); err != nil {
		return err
	}
	syncDir(filepath.Dir(r.Live))
	return nil
}

// syncDir persists a rename in dir, best effort.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Relation is how a recovered snapshot's epoch stands to the journal's.
type Relation uint8

const (
	// SameEpoch: the journal continues this snapshot; fold its records past
	// the snapshot's watermark.
	SameEpoch Relation = iota
	// SnapshotAhead: a roll died between its snapshot and its publish. The
	// journal's effects are already inside the snapshot — fold none of them
	// — but it is still the only record of what step 3 would have re-seeded.
	SnapshotAhead
	// JournalAhead: no usable snapshot for the journal's epoch (lost or
	// damaged); the snapshot cannot vouch for any of the journal.
	JournalAhead
)

// Relate compares a snapshot's epoch stamp with a journal's.
func Relate[E cmp.Ordered](snapshot, journal E) Relation {
	switch {
	case snapshot > journal:
		return SnapshotAhead
	case snapshot < journal:
		return JournalAhead
	}
	return SameEpoch
}
