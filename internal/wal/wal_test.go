package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func payloadsOf(t *testing.T, path string) []string {
	t.Helper()
	recs, _, err := ReadAll(path)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, sal, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() || sal.Records != 0 {
		t.Fatalf("fresh log salvage = %v", sal)
	}
	mustAppend(t, l, `{"a":1}`, `{"b":2}`, `{"c":3}`)
	if l.Records() != 3 {
		t.Fatalf("Records = %d, want 3", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, sal, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sal.Clean() || sal.Records != 3 {
		t.Fatalf("reopen salvage = %v, want clean with 3 records", sal)
	}
	mustAppend(t, l2, `{"d":4}`)
	got := payloadsOf(t, path)
	want := []string{`{"a":1}`, `{"b":2}`, `{"c":3}`, `{"d":4}`}
	if len(got) != len(want) {
		t.Fatalf("payloads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestEmptyFileRecovers: a zero-byte file (crash before the header write
// reached disk) opens clean as an empty log.
func TestEmptyFileRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, sal, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !sal.Clean() || sal.Records != 0 {
		t.Fatalf("empty-file salvage = %v, want clean", sal)
	}
	mustAppend(t, l, "x")
	if got := payloadsOf(t, path); len(got) != 1 || got[0] != "x" {
		t.Fatalf("after append: %v", got)
	}
}

// TestTruncatedTailSalvage chops bytes off the final record: the valid
// prefix survives, the torn record is dropped and reported, and the log
// remains appendable.
func TestTruncatedTailSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "alpha", "beta", "gamma")
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, sal, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if sal.Clean() || sal.Records != 2 || sal.DroppedRecords != 1 || sal.DroppedBytes == 0 {
		t.Fatalf("truncated-tail salvage = %+v, want 2 kept / 1 dropped", sal)
	}
	mustAppend(t, l2, "delta")
	l2.Close()
	got := payloadsOf(t, path)
	want := []string{"alpha", "beta", "delta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payloads after salvage = %v, want %v", got, want)
		}
	}
}

// TestFlippedByteSalvage corrupts one byte in the middle of the file: the
// records before the flip survive, the flipped record and everything after
// it are dropped (an append-only log must not resynchronise past damage).
func TestFlippedByteSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "record-zero", "record-one", "record-two", "record-three")
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside "record-one".
	i := bytes.Index(data, []byte("record-one"))
	data[i+7] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, sal, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "record-zero" {
		t.Fatalf("salvaged %d records, want just record-zero", len(recs))
	}
	if sal.Clean() || sal.Records != 1 || sal.DroppedRecords != 3 {
		t.Fatalf("flipped-byte salvage = %+v, want 1 kept / 3 dropped", sal)
	}
	if sal.Reason != "record failed checksum" {
		t.Fatalf("salvage reason = %q", sal.Reason)
	}

	// Open truncates the damage away for good.
	l2, _, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got := payloadsOf(t, path); len(got) != 1 {
		t.Fatalf("after salvaging open: %v", got)
	}
}

// TestGarbageHeaderSalvage: a file that is not a WAL at all salvages to
// empty rather than yielding bogus records.
func TestGarbageHeaderSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte("not a wal\nmore junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, sal, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if sal.Clean() || sal.Records != 0 || sal.DroppedBytes == 0 || sal.DroppedRecords != 2 {
		t.Fatalf("garbage-header salvage = %+v", sal)
	}
	mustAppend(t, l, "fresh")
	if got := payloadsOf(t, path); len(got) != 1 || got[0] != "fresh" {
		t.Fatalf("after reinit: %v", got)
	}
}

func TestAppendRejectsNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("two\nlines")); err == nil {
		t.Fatal("Append accepted a payload with a raw newline")
	}
}

func TestAbortThenAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "kept")
	l.Abort()
	if err := l.Append([]byte("lost")); err == nil {
		t.Fatal("Append succeeded on an aborted log")
	}
	// The pre-abort write is still visible (same machine, OS page cache).
	if got := payloadsOf(t, path); len(got) != 1 || got[0] != "kept" {
		t.Fatalf("after abort: %v", got)
	}
}

func TestWriteAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.wal")
	want := [][]byte{[]byte(`{"seq":12}`), []byte(`{"k":"v"}`)}
	if err := WriteAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	recs, sal, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() || len(recs) != 2 {
		t.Fatalf("snapshot salvage %v, %d records", sal, len(recs))
	}
	// Replacement leaves no .tmp behind and fully supersedes the old file.
	if err := WriteAtomic(path, [][]byte{[]byte("solo")}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	if got := payloadsOf(t, path); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("after rewrite: %v", got)
	}
}

// TestSyncModes: each policy's fsync cadence over 2·syncInterval+1 serial
// appends — none before Close, one per syncInterval appends, one per append
// — and every record is in the file after Close.
func TestSyncModes(t *testing.T) {
	const n = 2*syncInterval + 1
	for mode, want := range map[SyncMode]int{SyncOnClose: 0, SyncInterval: 2, SyncAlways: n} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("%s.wal", mode))
		syncs := 0
		l, _, err := Open(path, Config{Sync: mode, FaultHook: func(op string) error {
			if op == "sync" {
				syncs++
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			mustAppend(t, l, fmt.Sprintf("r%d", i))
		}
		if syncs != want {
			t.Fatalf("%v: %d fsyncs over %d appends, want %d", mode, syncs, n, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := payloadsOf(t, path); len(got) != n {
			t.Fatalf("%v: %d records, want %d", mode, len(got), n)
		}
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{
		"always": SyncAlways, "interval": SyncInterval, "never": SyncOnClose, "onclose": SyncOnClose,
	} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("ParseSyncMode accepted junk")
	}
}
