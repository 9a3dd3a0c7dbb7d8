// Daemon-side tests: WAL persistence across clean and crashed restarts,
// the epoch discipline that keeps snapshot and journal crash-consistent,
// and the drain seal. The endpoint semantics are tested from the client
// side (internal/store/remote runs the conformance suite over a live
// daemon), so these tests drive the store through the HTTP surface only
// where the journaling path is what's under test.
package stored_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"rpg2/internal/store"
	"rpg2/internal/stored"
	"rpg2/internal/wal"
)

func post(t *testing.T, url, path string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func commit(t *testing.T, url string, k store.Key, e store.Entry) uint64 {
	t.Helper()
	resp := post(t, url, "/v1/store/commit", map[string]any{"key": k, "entry": e})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: HTTP %d", resp.StatusCode)
	}
	var out struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Gen
}

func invalidate(t *testing.T, url string, k store.Key, gen uint64) {
	t.Helper()
	resp := post(t, url, "/v1/store/invalidate", map[string]any{"key": k, "gen": gen})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: HTTP %d", resp.StatusCode)
	}
}

// TestPersistenceCleanRestart: commits and a guard-passing invalidate
// journal durably; a drained daemon's state dir rebuilds the exact store
// in a fresh process.
func TestPersistenceCleanRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := stored.New(stored.Config{StateDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	keys := make([]store.Key, 6)
	for i := range keys {
		keys[i] = store.Key{Bench: "pr", Input: string(rune('a' + i)), Machine: "clx"}
		commit(t, ts.URL, keys[i], store.Entry{Distance: i + 1, Func: "f"})
	}
	gen := commit(t, ts.URL, keys[0], store.Entry{Distance: 99})
	invalidate(t, ts.URL, keys[0], gen)
	want := srv.Store().Export()
	srv.Drain()
	ts.Close()

	srv2, err := stored.New(stored.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Recovered() != 5 {
		t.Fatalf("recovered %d entries, want 5 (6 commits, 1 invalidated)", srv2.Recovered())
	}
	got := srv2.Store().Export()
	if len(got) != len(want) {
		t.Fatalf("recovered export has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Entry.Distance != want[i].Entry.Distance {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	srv2.Drain()
}

// TestPersistenceCrashRecovery: no Drain, no final snapshot — the journal
// alone (SyncAlways) must rebuild every op folded over the last snapshot,
// including ops past the snapshot threshold (which exercises an epoch
// roll mid-run).
func TestPersistenceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, err := stored.New(stored.Config{StateDir: dir, SnapshotEvery: 3, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	for i := 0; i < 8; i++ { // crosses two snapshot thresholds
		k := store.Key{Bench: "bfs", Input: string(rune('a' + i)), Machine: "clx"}
		commit(t, ts.URL, k, store.Entry{Distance: 10 + i})
	}
	gen := commit(t, ts.URL, store.Key{Bench: "bfs", Input: "a", Machine: "clx"}, store.Entry{Distance: 77})
	invalidate(t, ts.URL, store.Key{Bench: "bfs", Input: "a", Machine: "clx"}, gen)
	want := srv.Store().Export()
	ts.Close() // kill -9: no Drain, the open journal is simply abandoned

	srv2, err := stored.New(stored.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := srv2.Store().Export()
	if len(got) != len(want) || srv2.Recovered() != len(want) {
		t.Fatalf("crash recovery: %d entries (Recovered %d), want %d",
			len(got), srv2.Recovered(), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Entry.Distance != want[i].Entry.Distance {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	srv2.Drain()
}

// TestStaleJournalIgnored: a journal whose epoch predates the snapshot's
// (the crash window between a snapshot landing and the journal resetting)
// must be ignored — its ops are already folded into the snapshot.
func TestStaleJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	srv, err := stored.New(stored.Config{StateDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	k := store.Key{Bench: "pr", Input: "uni", Machine: "clx"}
	commit(t, ts.URL, k, store.Entry{Distance: 3})
	srv.Drain() // final snapshot at epoch E+1, journal reset to E+1
	ts.Close()

	// Forge the post-snapshot/pre-reset crash: rewrite the journal as an
	// older epoch holding an invalidate that was already folded away.
	jrnl := filepath.Join(dir, "store-journal.wal")
	meta, _ := json.Marshal(map[string]any{"op": "epoch", "epoch": 1})
	op, _ := json.Marshal(map[string]any{"op": "invalidate", "key": k})
	if err := wal.WriteAtomic(jrnl, [][]byte{meta, op}); err != nil {
		t.Fatal(err)
	}

	srv2, err := stored.New(stored.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Recovered() != 1 {
		t.Fatalf("stale journal was replayed: recovered %d entries, want 1", srv2.Recovered())
	}
	srv2.Drain()
}

// TestFreshDiscardsState: -fresh starts empty over a dir with prior
// contents.
func TestFreshDiscardsState(t *testing.T) {
	dir := t.TempDir()
	srv, err := stored.New(stored.Config{StateDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	commit(t, ts.URL, store.Key{Bench: "pr", Input: "uni", Machine: "clx"}, store.Entry{Distance: 3})
	srv.Drain()
	ts.Close()

	srv2, err := stored.New(stored.Config{StateDir: dir, Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Recovered() != 0 || srv2.Store().Len() != 0 {
		t.Fatalf("fresh daemon recovered %d entries, len %d", srv2.Recovered(), srv2.Store().Len())
	}
	srv2.Drain()
}

// TestDrainSeals: after Drain, store endpoints answer 503 and healthz
// reports draining — the client's transient-retry loop treats 503 as "try
// elsewhere", not as data.
func TestDrainSeals(t *testing.T) {
	srv, err := stored.New(stored.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Drain()

	resp := post(t, ts.URL, "/v1/store/commit", map[string]any{"key": store.Key{Bench: "pr"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain commit: HTTP %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz after drain = %q, want draining", h.Status)
	}
}

// TestStateDirCreated: a nested, nonexistent state dir is created rather
// than erroring (mirrors the fleet daemon's behavior).
func TestStateDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	srv, err := stored.New(stored.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store-snapshot.wal")); err != nil {
		t.Fatalf("state dir not initialised: %v", err)
	}
	srv.Drain()
}
