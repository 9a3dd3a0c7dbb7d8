// Daemon-side tests: WAL persistence across clean and crashed restarts,
// the epoch roll that keeps the one journal crash-consistent, and the
// drain seal. The endpoint semantics are tested from the client
// side (internal/store/remote runs the conformance suite over a live
// daemon), so these tests drive the store through the HTTP surface only
// where the journaling path is what's under test.
package stored_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// TestPersistenceCrashRecovery: no Drain, no final roll — the journal
// (SyncAlways) must rebuild every op folded over its head, including ops
// past the roll threshold (which exercises an epoch roll mid-run).
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

// TestStaleJournalIgnored: a stage file beside the journal is a roll that
// died before its rename — never the journal recovery reads — so whatever
// it holds (here an invalidate of a live entry and a stale epoch) must be
// ignored, and the next roll replaces it.
func TestStaleJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	srv, err := stored.New(stored.Config{StateDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	k := store.Key{Bench: "pr", Input: "uni", Machine: "clx"}
	commit(t, ts.URL, k, store.Entry{Distance: 3})
	srv.Drain() // a final roll: the entry is the journal's head
	ts.Close()

	// Forge the crash mid-roll: a stage that would drop the entry.
	stage := filepath.Join(dir, "store-journal.next")
	meta, _ := json.Marshal(map[string]any{"op": "epoch", "epoch": 1})
	op, _ := json.Marshal(map[string]any{"op": "invalidate", "key": k})
	if err := wal.WriteAtomic(stage, [][]byte{meta, op}); err != nil {
		t.Fatal(err)
	}

	srv2, err := stored.New(stored.Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Recovered() != 1 {
		t.Fatalf("stale stage was replayed: recovered %d entries, want 1", srv2.Recovered())
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatalf("the stage file outlived the next roll: %v", err)
	}
	srv2.Drain()
}

// TestRefusesLegacyStateDir: a state dir the two-file layout left behind
// keeps its entries in store-snapshot.wal, which this binary does not
// read, so New refuses it — naming the file and both ways out, touching
// nothing — until Fresh discards it.
func TestRefusesLegacyStateDir(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "store-snapshot.wal")
	meta, _ := json.Marshal(map[string]any{"op": "epoch", "epoch": 4})
	entry, _ := json.Marshal(map[string]any{"op": "entry", "key": store.Key{Bench: "pr"}, "entry": store.Entry{Distance: 3}})
	if err := wal.WriteAtomic(legacy, [][]byte{meta, entry}); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteAtomic(filepath.Join(dir, "store-journal.wal"), [][]byte{meta}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = stored.New(stored.Config{StateDir: dir})
	if err == nil {
		t.Fatal("New accepted a two-file state dir")
	}
	for _, want := range []string{"store-snapshot.wal", "-fresh", "GET /v1/store/export", "POST /v1/store/import"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not mention %q", err, want)
		}
	}
	if after, err := os.ReadFile(legacy); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refusing New touched the legacy snapshot: %v", err)
	}

	srv, err := stored.New(stored.Config{StateDir: dir, Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("Fresh left the legacy snapshot behind: %v", err)
	}
	srv2, err := stored.New(stored.Config{StateDir: dir})
	if err != nil {
		t.Fatalf("restart after Fresh: %v", err)
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
	if _, err := os.Stat(filepath.Join(dir, "store-journal.wal")); err != nil {
		t.Fatalf("state dir not initialised: %v", err)
	}
	srv.Drain()
}

// TestPrefixRecoverySweep recovers from every state a crash can leave the
// store daemon's one journal in, across epoch rolls: after each accepted
// op, the state dir as it stands (a kill -9 there) and every record prefix
// of its journal that keeps the head (a power cut that kept only part of
// the tail; under fsync-always a reply means its op is durable, so these
// are the instants before earlier replies). Each must recover exactly the
// store as it stood after the ops that prefix holds — never a head from
// one epoch with another's ops, never a lost acknowledged op.
func TestPrefixRecoverySweep(t *testing.T) {
	dir := t.TempDir()
	srv, err := stored.New(stored.Config{StateDir: dir, SnapshotEvery: 3, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	journal := filepath.Join(dir, "store-journal.wal")
	type state struct {
		journal [][]byte
		models  [][]store.KeyedEntry // models[m]: the store after the journal's first m ops
	}
	var (
		states []state
		models = [][]store.KeyedEntry{srv.Store().Export()}
	)
	capture := func() {
		t.Helper()
		recs, sal, err := wal.ReadAll(journal)
		if err != nil || !sal.Clean() {
			t.Fatalf("read the journal: %v (%s)", err, sal)
		}
		ops := 0
		for _, rec := range recs {
			if bytes.Contains(rec, []byte(`"op":"commit"`)) || bytes.Contains(rec, []byte(`"op":"invalidate"`)) {
				ops++
			}
		}
		states = append(states, state{journal: recs, models: models[len(models)-1-ops:]})
	}
	for i := 0; i < 10; i++ {
		k := store.Key{Bench: "bfs", Input: string(rune('a' + i%4)), Machine: "clx"}
		gen := commit(t, ts.URL, k, store.Entry{Distance: 10 + i})
		models = append(models, srv.Store().Export())
		capture()
		if i%3 == 1 {
			invalidate(t, ts.URL, k, gen)
			models = append(models, srv.Store().Export())
			capture()
		}
	}
	rolls := 0
	for i := 1; i < len(states); i++ {
		if !bytes.Equal(states[i].journal[0], states[i-1].journal[0]) {
			rolls++
		}
	}
	if rolls < 2 {
		t.Fatalf("the run rolled the journal %d times; the sweep needs rolls mid-run", rolls)
	}

	for i, st := range states {
		head := len(st.journal) - (len(st.models) - 1)
		for n := head; n <= len(st.journal); n++ {
			t.Run(fmt.Sprintf("op=%d/records=%d", i, n), func(t *testing.T) {
				cut := t.TempDir()
				if err := wal.WriteAtomic(filepath.Join(cut, "store-journal.wal"), st.journal[:n]); err != nil {
					t.Fatal(err)
				}
				srv2, err := stored.New(stored.Config{StateDir: cut})
				if err != nil {
					t.Fatal(err)
				}
				defer srv2.Drain()
				got, want := srv2.Store().Export(), st.models[n-head]
				if len(got) != len(want) {
					t.Fatalf("recovered %d entries, want %d", len(got), len(want))
				}
				for j := range got {
					if got[j].Key != want[j].Key || got[j].Entry.Distance != want[j].Entry.Distance {
						t.Fatalf("entry %d = %+v, want %+v", j, got[j], want[j])
					}
				}
			})
		}
	}
	srv.Drain()
}
