package wal

import (
	"os"
	"path/filepath"
)

// Epoch rolls. A state dir holds one journal, and every fresh start — boot,
// recovery, re-arm, a periodic roll, a clean close — replaces it whole in
// one order: a fresh journal staged beside the live one, stamped with the
// caller's epoch record (this package never parses it) (Begin); whatever
// the caller writes at its head — the state a restart needs, then the
// records still owed a future (the caller's seed); sync, rename over the
// live journal, fsync the directory (Publish). A crash before the rename
// leaves the old journal whole, one after it the new one; a leftover stage
// file is a roll that died before its rename, which nothing reads and the
// next Begin deletes. There is nothing to reconcile. DESIGN.md §11.3 has
// the table.

// Roll names the two paths one journal's epochs move through, and how the
// staged journal is opened.
type Roll struct {
	// Live is the journal recovery reads; Stage is where a fresh epoch's
	// journal grows until Publish renames it over Live.
	Live, Stage string
	// Config is the staged journal's durability policy and fault hook.
	Config Config
}

// Begin stages a fresh journal at Stage holding only stamp, written but not
// synced: Publish's sync covers it and whatever the caller writes after
// it. The returned log is open for the caller's head and seed, and a
// Commit on it waits for its Publish; the live journal has not been
// touched, so on any error (or a crash) the state dir still recovers as it
// would have before.
func (r Roll) Begin(stamp []byte) (*Log, error) {
	// A leftover stage file is a roll that died before Publish, superseded.
	if err := os.Remove(r.Stage); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	log, _, err := Open(r.Stage, r.Config)
	if err != nil {
		return nil, err
	}
	log.staged = make(chan struct{})
	if err := log.Write(stamp); err != nil {
		log.Abort()
		return nil, err
	}
	return log, nil
}

// Publish flushes a log Begin returned, then atomically renames it over
// the live journal and releases every Commit waiting on it. The open log
// keeps appending to the same inode — only the name changes — so
// everything written before the publish is inside the file when it takes
// the journal's name. On an error the waiting Commits stay held until the
// caller aborts the log.
func (r Roll) Publish(log *Log) error {
	if err := log.Sync(); err != nil {
		return err
	}
	if err := os.Rename(r.Stage, r.Live); err != nil {
		return err
	}
	syncDir(filepath.Dir(r.Live))
	log.publish()
	return nil
}

// syncDir persists a rename in dir, best effort.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
