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
// contain a raw newline (JSON-encoded payloads never do). Durability is a
// policy knob: fsync on every append, every Interval appends, or only at
// Close.
package wal

import (
	"bytes"
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

// SyncMode selects when appends reach stable storage.
type SyncMode uint8

const (
	// SyncInterval (the default) fsyncs every Config.Interval appends and
	// on Close — bounded loss, amortised cost.
	SyncInterval SyncMode = iota
	// SyncAlways fsyncs every append: nothing acknowledged is ever lost.
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
	// Interval is the append count between fsyncs under SyncInterval
	// (default 64).
	Interval int
	// FaultHook, when set, is consulted before each physical operation
	// ("write" before a record reaches the file, "sync" before an fsync)
	// and its non-nil error is returned in place of performing it. It is
	// the chaos layer's seam: a deterministic injector failing exactly the
	// operations a flaky disk would, without touching the filesystem.
	FaultHook func(op string) error
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 64
	}
	return c
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
	mu      sync.Mutex
	f       *os.File
	path    string
	cfg     Config
	records int // valid records in the file (salvaged + appended)
	unsynct int // appends since the last fsync
	closed  bool
}

// Open opens (or creates) the log at path, salvages any damaged tail by
// truncating the file to its longest valid prefix, and positions for
// appending. The salvage report says what, if anything, was dropped.
func Open(path string, cfg Config) (*Log, Salvage, error) {
	cfg = cfg.withDefaults()
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
	return &Log{f: f, path: path, cfg: cfg, records: sal.Records}, sal, nil
}

// Append writes one record. The payload must not contain a raw newline.
// Whether the record is durable immediately depends on the sync policy;
// whether it is written at all does not.
func (l *Log) Append(payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("wal: payload contains a raw newline")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if h := l.cfg.FaultHook; h != nil {
		if err := h("write"); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame(payload)); err != nil {
		return err
	}
	l.records++
	l.unsynct++
	switch l.cfg.Sync {
	case SyncAlways:
		l.unsynct = 0
		return l.syncLocked()
	case SyncInterval:
		if l.unsynct >= l.cfg.Interval {
			l.unsynct = 0
			return l.syncLocked()
		}
	}
	return nil
}

// syncLocked runs the fault hook, then fsyncs. Callers hold l.mu.
func (l *Log) syncLocked() error {
	if h := l.cfg.FaultHook; h != nil {
		if err := h("sync"); err != nil {
			return err
		}
	}
	return l.f.Sync()
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.unsynct = 0
	return l.syncLocked()
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Abort closes the log without syncing — the file keeps whatever the OS
// has; subsequent Appends fail. It simulates the process dying (or the
// disk vanishing) underneath the writer, for crash and degradation tests.
func (l *Log) Abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.f.Close()
}

// AbortTorn is Abort with a torn tail: it flushes what the log has, tears
// the final tear bytes off the file (never reaching back into the header),
// and closes without syncing the truncation. The result is exactly what a
// power cut mid-write leaves behind — a longest-valid-prefix file whose
// final record(s) are partial — so crash tests can exercise salvage on
// demand instead of hoping for an unlucky kill. It returns how many bytes
// were actually torn.
func (l *Log) AbortTorn(tear int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0
	}
	l.closed = true
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

// Path is the log's file path.
func (l *Log) Path() string { return l.path }

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
// complete new one survives a crash, never a mix. Snapshot files use the
// same framing as the journal so one salvage reader serves both.
func WriteAtomic(path string, payloads [][]byte) error {
	return WriteAtomicHook(path, payloads, nil)
}

// WriteAtomicHook is WriteAtomic with a fault hook consulted (op
// "snapshot") before the write begins; a non-nil hook error aborts the
// write with the old file untouched — which is also the failure atomicity
// a real mid-snapshot disk error would leave behind.
func WriteAtomicHook(path string, payloads [][]byte, hook func(op string) error) (err error) {
	if hook != nil {
		if err := hook("snapshot"); err != nil {
			return err
		}
	}
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
