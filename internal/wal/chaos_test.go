package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A torn tail that reaches back across several records: salvage must keep
// exactly the longest valid prefix, count every damaged frame it dropped,
// and leave the log appendable.
func TestMultiRecordTornTailSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf(`{"rec":%d}`, i)
		want = append(want, p)
		mustAppend(t, l, p)
	}
	l.Close()

	// Tear off the last two full records plus half of the one before them:
	// three records' worth of damage in one contiguous tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lineLen := (len(data) - len(header)) / 8
	tear := 2*lineLen + lineLen/2
	if err := os.WriteFile(path, data[:len(data)-tear], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, sal, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if sal.Clean() {
		t.Fatalf("salvage reported clean on a %d-byte tear", tear)
	}
	if sal.Records != 5 {
		t.Fatalf("salvage kept %d records, want 5 (prefix before the tear)", sal.Records)
	}
	if sal.DroppedRecords != 1 {
		// Only the half-record remains as a damaged frame; the two fully
		// torn records left no bytes to count.
		t.Fatalf("salvage dropped %d frames, want 1: %+v", sal.DroppedRecords, sal)
	}
	mustAppend(t, l2, "after")
	l2.Close()
	got := payloadsOf(t, path)
	wantAfter := append(want[:5:5], "after")
	if len(got) != len(wantAfter) {
		t.Fatalf("payloads = %v, want %v", got, wantAfter)
	}
	for i := range wantAfter {
		if got[i] != wantAfter[i] {
			t.Fatalf("payload %d = %q, want %q", i, got[i], wantAfter[i])
		}
	}
}

// AbortTorn simulates the power cut directly: the file ends mid-record,
// salvage on reopen drops exactly the torn bytes, and nothing before the
// tear is lost.
func TestAbortTornLeavesSalvageablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "alpha", "beta", "gamma")
	torn := l.AbortTorn(5)
	if torn != 5 {
		t.Fatalf("AbortTorn tore %d bytes, want 5", torn)
	}
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("Append succeeded after AbortTorn")
	}

	l2, sal, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if sal.Clean() || sal.Records != 2 || sal.DroppedRecords != 1 {
		t.Fatalf("post-tear salvage = %+v, want 2 kept / 1 dropped", sal)
	}
	got := payloadsOf(t, path)
	if len(got) < 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("surviving prefix = %v", got)
	}
}

// AbortTorn never tears into the header: a huge tear leaves a valid empty
// log, not a corrupt one.
func TestAbortTornClampsAtHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	l, _, err := Open(path, Config{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "only")
	l.AbortTorn(1 << 20)
	l2, sal, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sal.Clean() || sal.Records != 0 {
		t.Fatalf("header-clamped tear salvage = %+v, want clean empty", sal)
	}
}

// The fault hook is consulted before the physical operation: an injected
// write error leaves the file untouched (the record can be retried), and
// an injected sync error surfaces from Sync.
func TestFaultHookGatesWriteAndSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	fail := map[string]bool{}
	injected := errors.New("injected")
	hook := func(op string) error {
		if fail[op] {
			return injected
		}
		return nil
	}
	l, _, err := Open(path, Config{Sync: SyncAlways, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, "ok")

	fail["write"] = true
	if err := l.Append([]byte("blocked")); !errors.Is(err, injected) {
		t.Fatalf("Append under write fault = %v, want injected", err)
	}
	if l.Records() != 1 {
		t.Fatalf("failed append counted: Records = %d", l.Records())
	}
	fail["write"] = false
	mustAppend(t, l, "retried")

	fail["sync"] = true
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync under sync fault = %v, want injected", err)
	}
	fail["sync"] = false
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after fault cleared: %v", err)
	}
	if got := payloadsOf(t, path); len(got) != 2 || got[0] != "ok" || got[1] != "retried" {
		t.Fatalf("payloads = %v", got)
	}
}
