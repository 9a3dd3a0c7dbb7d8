// Package wal is the fleet's crash-safety substrate: an append-only,
// checksummed, newline-framed write-ahead log. Every record is one line —
// an IEEE CRC-32 of the payload, the payload length, and the payload
// itself — so a log damaged by a crash (a torn final write, a truncated
// file, a flipped byte) is recoverable by scanning for the longest valid
// prefix. Salvage keeps that prefix, truncates the damage away, and
// reports exactly what was dropped; it never guesses at records past the
// first corruption, because an append-only log's meaning is its order.
//
// Payloads are opaque to the log except for one rule: they must not
// contain a raw newline (JSON-encoded payloads never do).
//
// Writing and making durable are two calls. Write frames a record and hands
// it to the OS, never syncing: the record survives the process dying, not a
// power cut. Commit is the group-commit barrier: it returns once every
// record written before the call is on stable storage, one fsync covering
// however many records and callers were waiting. Append is Write followed
// by the log's policy — a Commit per append (SyncAlways), a Sync every
// syncInterval appends, or nothing until Close — for callers whose every record
// is an acknowledgement. A caller that acknowledges less often than it
// writes (the fleet's journal) uses Write and commits where it is about to
// tell someone.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// header is the first line of every log file; a file that does not start
// with it is not a WAL and salvages to empty.
const header = "rpg2-wal 1\n"

// syncInterval is the append count between fsyncs under SyncInterval.
const syncInterval = 64

// SyncMode selects when appends reach stable storage.
type SyncMode uint8

const (
	// SyncInterval (the default) fsyncs every syncInterval appends and
	// on Close — bounded loss, amortised cost.
	SyncInterval SyncMode = iota
	// SyncAlways makes Append durable on return: each Append ends in a
	// Commit, so nothing acknowledged is ever lost. Appends racing each
	// other share fsyncs; serial ones pay one each.
	SyncAlways
	// SyncOnClose leaves flushing to the OS until Close: fastest, loses
	// the tail of a crashed process's unflushed writes.
	SyncOnClose
)

func (m SyncMode) String() string {
	switch m {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncOnClose:
		return "never"
	}
	return fmt.Sprintf("sync(%d)", uint8(m))
}

// ParseSyncMode resolves the CLI spellings: "interval", "always", and
// "never" (or "onclose").
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never", "onclose":
		return SyncOnClose, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want always, interval, or never)", s)
}

// Config tunes a log's durability.
type Config struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncMode
	// FaultHook, when set, is consulted before each physical operation
	// ("write" before a record reaches the file, "sync" before an fsync)
	// and its non-nil error is returned in place of performing it. It is
	// the chaos layer's seam: a deterministic injector failing exactly the
	// operations a flaky disk would, without touching the filesystem.
	FaultHook func(op string) error
}

// Salvage reports what opening (or reading) an existing log recovered and
// what it had to drop. A zero Reason means the file was clean.
type Salvage struct {
	// Records is the number of valid records in the kept prefix.
	Records int `json:"records"`
	// DroppedBytes is how many trailing bytes were discarded.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// DroppedRecords is the best-effort count of records those bytes
	// framed (newline-delimited chunks, counting an unterminated tail).
	DroppedRecords int `json:"dropped_records,omitempty"`
	// Reason says why the tail was dropped ("" = nothing was).
	Reason string `json:"reason,omitempty"`
}

// Clean reports whether the log needed no salvage.
func (s Salvage) Clean() bool { return s.Reason == "" }

func (s Salvage) String() string {
	if s.Clean() {
		return fmt.Sprintf("clean, %d records", s.Records)
	}
	return fmt.Sprintf("kept %d records, dropped %d bytes (%d records): %s",
		s.Records, s.DroppedBytes, s.DroppedRecords, s.Reason)
}

// scan walks data for the longest valid prefix, returning the payloads it
// frames, the prefix length in bytes, and the salvage report.
func scan(data []byte) ([][]byte, int64, Salvage) {
	var sal Salvage
	if len(data) == 0 {
		return nil, 0, sal
	}
	if !bytes.HasPrefix(data, []byte(header)) {
		sal.Reason = "missing or corrupt header"
		sal.DroppedBytes = int64(len(data))
		sal.DroppedRecords = countFrames(data)
		return nil, 0, sal
	}
	var payloads [][]byte
	pos := len(header)
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			sal.Reason = "truncated tail record"
			break
		}
		payload, ok := parseRecord(data[pos : pos+nl])
		if !ok {
			sal.Reason = "record failed checksum"
			break
		}
		payloads = append(payloads, payload)
		pos += nl + 1
	}
	sal.Records = len(payloads)
	if pos < len(data) {
		sal.DroppedBytes = int64(len(data) - pos)
		sal.DroppedRecords = countFrames(data[pos:])
	}
	return payloads, int64(pos), sal
}

// countFrames counts the newline-delimited chunks in a dropped tail,
// including an unterminated final chunk.
func countFrames(tail []byte) int {
	n := bytes.Count(tail, []byte{'\n'})
	if len(tail) > 0 && tail[len(tail)-1] != '\n' {
		n++
	}
	return n
}

// parseRecord validates one framed line: "crc32hex len payload".
func parseRecord(line []byte) ([]byte, bool) {
	// Shortest legal line: 8 hex digits, space, "0", space.
	if len(line) < 11 || line[8] != ' ' {
		return nil, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	rest := line[9:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, false
	}
	plen, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || plen != len(rest)-sp-1 {
		return nil, false
	}
	payload := rest[sp+1:]
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return nil, false
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, true
}

// frame encodes one payload as its on-disk line.
func frame(payload []byte) []byte {
	return []byte(fmt.Sprintf("%08x %d %s\n", crc32.ChecksumIEEE(payload), len(payload), payload))
}

// Log is an open write-ahead log positioned for appending.
type Log struct {
	// syncMu serialises fsyncs and is what Close, Abort and AbortTorn take to
	// wait one out. It is acquired before mu, never while holding it, and an
	// fsync runs under syncMu alone — writes continue meanwhile.
	syncMu sync.Mutex

	mu      sync.Mutex
	f       *os.File
	cfg     Config
	records int // valid records in the file (salvaged + written)
	unsynct int // writes since the last fsync began
	closed  bool

	// Group-commit bookkeeping (under mu). synced is how many records the
	// last successful fsync covered; syncs counts finished fsync attempts,
	// and the last failed one is remembered with its ordinal and coverage so
	// every Commit that was waiting on it gets its error.
	synced      int
	syncs       int
	failedSync  int
	failedCover int
	failedErr   error

	// staged is open while the log is a Roll's unpublished stage: a Commit
	// waits for it to close (Publish, or the log closing) before it may
	// report anything durable, because a record that is on disk under the
	// stage's name is not yet in the journal recovery reads. Nil for a log
	// Open returned.
	staged chan struct{}
}

var errClosed = errors.New("wal: log is closed")

// Open opens (or creates) the log at path, salvages any damaged tail by
// truncating the file to its longest valid prefix, and positions for
// appending. The salvage report says what, if anything, was dropped.
func Open(path string, cfg Config) (*Log, Salvage, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Salvage{}, err
	}
	_, valid, sal := scan(data)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, sal, err
	}
	if valid == 0 {
		// Empty file, or damage reaching back into the header: reinitialise.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, sal, err
		}
		if _, err := f.WriteString(header); err != nil {
			f.Close()
			return nil, sal, err
		}
	} else {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, sal, err
		}
		if _, err := f.Seek(valid, 0); err != nil {
			f.Close()
			return nil, sal, err
		}
	}
	return &Log{f: f, cfg: cfg, records: sal.Records, synced: sal.Records}, sal, nil
}

// Write frames one record and hands it to the OS; it never syncs. The
// record survives the process dying (the page cache keeps it) but not a
// power cut until a Commit, Sync or Close covers it. The payload must not
// contain a raw newline.
func (l *Log) Write(payload []byte) error {
	_, err := l.write(payload)
	return err
}

// write is Write, also reporting how many writes now await an fsync.
func (l *Log) write(payload []byte) (unsynct int, err error) {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return 0, fmt.Errorf("wal: payload contains a raw newline")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errClosed
	}
	if h := l.cfg.FaultHook; h != nil {
		if err := h("write"); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(frame(payload)); err != nil {
		return 0, err
	}
	l.records++
	l.unsynct++
	return l.unsynct, nil
}

// Append is Write followed by the policy's sync: under SyncAlways a Commit,
// so the record is on stable storage when Append returns; under
// SyncInterval a Sync every syncInterval writes; under SyncOnClose
// nothing. Whether the record is written at all does not depend on the
// policy.
func (l *Log) Append(payload []byte) error {
	unsynct, err := l.write(payload)
	if err != nil {
		return err
	}
	switch l.cfg.Sync {
	case SyncAlways:
		return l.Commit()
	case SyncInterval:
		if unsynct >= syncInterval {
			return l.Sync()
		}
	}
	return nil
}

// Commit is the group-commit barrier: it returns once every record written
// before the call is on stable storage. One fsync covers everything written
// when it begins, so concurrent committers share fsyncs, and a caller whose
// records an earlier fsync already covered touches no disk and consults no
// FaultHook. A failed fsync is returned to every Commit it was covering; a
// later Commit tries again. On a staged log (Roll.Begin) Commit first waits
// for the Publish that gives the records the journal's name; that Publish's
// sync usually covers them.
func (l *Log) Commit() error {
	l.mu.Lock()
	target, seen, staged := l.records, l.syncs, l.staged
	l.mu.Unlock()
	if staged != nil {
		<-staged
		l.mu.Lock()
		unpublished := l.staged != nil
		l.mu.Unlock()
		if unpublished {
			return errClosed
		}
	}
	return l.fsync(target, seen)
}

// publish releases the Commits waiting on a staged log.
func (l *Log) publish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.staged != nil && !l.closed {
		close(l.staged)
		l.staged = nil
	}
}

// Sync forces an fsync of everything written so far, covered or not.
func (l *Log) Sync() error {
	return l.fsync(-1, 0)
}

// fsync is the log's one path to stable storage. target < 0 forces a
// physical fsync; otherwise the call is satisfied by any fsync covering the
// first target records — one that finished successfully at any time, or one
// that failed after the caller had seen `seen` attempts finish (the caller
// was waiting on it). The "sync" FaultHook is consulted once per physical
// fsync, outside mu.
func (l *Log) fsync(target, seen int) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	switch {
	case target >= 0 && l.synced >= target:
		l.mu.Unlock()
		return nil
	case target >= 0 && l.failedSync > seen && l.failedCover >= target:
		err := l.failedErr
		l.mu.Unlock()
		return err
	case l.closed:
		l.mu.Unlock()
		return errClosed
	}
	cover := l.records
	l.unsynct = 0
	l.mu.Unlock()

	var err error
	if h := l.cfg.FaultHook; h != nil {
		err = h("sync")
	}
	if err == nil {
		err = l.f.Sync()
	}

	l.mu.Lock()
	l.syncs++
	if err == nil {
		l.synced = cover
	} else {
		l.failedSync, l.failedCover, l.failedErr = l.syncs, cover, err
	}
	l.mu.Unlock()
	return err
}

// shut marks the log closed and reports whether this call did it. Callers
// hold syncMu — so any fsync in flight has finished, and none starts until
// they are done with the file — and own the file from here: no Write
// touches it again.
func (l *Log) shut() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.closed = true
	if l.staged != nil {
		// Never published: wake the waiting Commits, and leave staged set
		// so they report the log closed.
		close(l.staged)
	}
	return true
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if !l.shut() {
		return nil
	}
	serr := l.f.Sync()
	if serr == nil {
		// A Commit that was waiting on this Close finds its records covered.
		l.mu.Lock()
		l.synced = l.records
		l.mu.Unlock()
	}
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Abort closes the log without syncing — the file keeps whatever the OS
// has; subsequent Writes fail. It simulates the process dying (or the
// disk vanishing) underneath the writer, for crash and degradation tests.
func (l *Log) Abort() {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.shut() {
		l.f.Close()
	}
}

// AbortTorn is Abort with a torn tail: it flushes what the log has, tears
// the final tear bytes off the file (never reaching back into the header),
// and closes without syncing the truncation. The result is exactly what a
// power cut mid-write leaves behind — a longest-valid-prefix file whose
// final record(s) are partial — so crash tests can exercise salvage on
// demand instead of hoping for an unlucky kill. It returns how many bytes
// were actually torn.
func (l *Log) AbortTorn(tear int) int {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if !l.shut() {
		return 0
	}
	defer l.f.Close()
	// Make sure the bytes being torn are on disk in the first place;
	// otherwise the OS may have less than we think and the tear is moot.
	if err := l.f.Sync(); err != nil {
		return 0
	}
	size, err := l.f.Seek(0, 2)
	if err != nil {
		return 0
	}
	if tear <= 0 {
		return 0
	}
	floor := int64(len(header))
	if size-int64(tear) < floor {
		tear = int(size - floor)
	}
	if tear <= 0 {
		return 0
	}
	if err := l.f.Truncate(size - int64(tear)); err != nil {
		return 0
	}
	return tear
}

// Records is the number of valid records in the file.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// ReadAll salvage-scans the log at path without modifying it, returning
// the payloads of the longest valid prefix. A missing file is an error
// (callers decide whether that is fatal).
func ReadAll(path string) ([][]byte, Salvage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Salvage{}, err
	}
	payloads, _, sal := scan(data)
	return payloads, sal, nil
}

// WriteAtomic replaces the log at path with exactly the given records,
// via a temp file, fsync, and rename — either the old file or the
// complete new one survives a crash, never a mix.
func WriteAtomic(path string, payloads [][]byte) (err error) {
	var buf bytes.Buffer
	buf.WriteString(header)
	for _, p := range payloads {
		if bytes.IndexByte(p, '\n') >= 0 {
			return fmt.Errorf("wal: payload contains a raw newline")
		}
		buf.Write(frame(p))
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // harmless if the success path's Close already ran
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}
