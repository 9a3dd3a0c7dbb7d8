// The remote backend's semantic and failure-mode tests: the conformance
// suite over a live daemon (so the networked store cannot drift from the
// in-process contract), the cross-client generation-guard races the
// daemon exists to arbitrate, and the degrade-to-fallback arc.
package remote_test

import (
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpg2/internal/store"
	"rpg2/internal/store/remote"
	"rpg2/internal/store/storetest"
	"rpg2/internal/stored"
)

// newDaemon serves a fresh store daemon over httptest and returns a
// client factory bound to it.
func newDaemon(t *testing.T, cfg store.Config) (*stored.Server, string) {
	t.Helper()
	srv, err := stored.New(stored.Config{Store: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func newClient(url string) *remote.Client {
	return remote.New(remote.Config{
		BaseURL: url, MaxRetries: 2,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond,
	})
}

// The same table-driven semantics suite Memory passes, run over
// the wire: each subtest gets its own daemon so stores are never shared.
func TestRemoteConformanceOverMemory(t *testing.T) {
	storetest.Run(t, func(t *testing.T, cfg store.Config) store.Store {
		_, url := newDaemon(t, cfg)
		return newClient(url)
	})
}

// TestCrossClientGenGuard: generations live in the daemon, so two clients
// racing a commit on one key resolve like two in-process workers — the
// loser's stale-generation Invalidate/Refund must no-op instead of
// clobbering the winner's fresher entry.
func TestCrossClientGenGuard(t *testing.T) {
	srv, url := newDaemon(t, store.Config{})
	c1, c2 := newClient(url), newClient(url)

	k := store.Key{Bench: "pr", Input: "uni", Machine: "clx"}
	gen1 := c1.Commit(k, store.Entry{Distance: 4})
	if gen1 == 0 {
		t.Fatal("commit through client 1 returned gen 0")
	}
	gen2 := c2.Commit(k, store.Entry{Distance: 9})
	if gen2 <= gen1 {
		t.Fatalf("client 2's commit gen %d did not supersede client 1's %d", gen2, gen1)
	}
	if c1.Invalidate(k, gen1) {
		t.Fatal("client 1's stale-generation invalidate dropped client 2's entry")
	}
	if c1.Refund(k, gen1) {
		t.Fatal("client 1's stale-generation refund was accepted")
	}
	if got := srv.Store().Export(); len(got) != 1 || got[0].Key != k || got[0].Entry.Distance != 9 {
		t.Fatalf("winner's entry lost: %+v", got)
	}
	if !c2.Invalidate(k, gen2) {
		t.Fatal("current-generation invalidate refused")
	}
	if srv.Store().Len() != 0 {
		t.Fatal("invalidate left the entry in the daemon")
	}
}

// TestCrossClientCommitRace: many concurrent commit/invalidate pairs from
// two clients; whatever interleaving the daemon serialized, stale guards
// never delete a fresher commit, so the store stays coherent (run under
// -race in CI).
func TestCrossClientCommitRace(t *testing.T) {
	srv, url := newDaemon(t, store.Config{})
	clients := []*remote.Client{newClient(url), newClient(url)}

	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *remote.Client) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := store.Key{Bench: "bfs", Input: "rmat", Machine: "clx"}
				gen := c.Commit(k, store.Entry{Distance: w*100 + i})
				if gen == 0 {
					t.Errorf("client %d commit %d returned gen 0", w, i)
					return
				}
				// Invalidate with the gen we were issued: succeeds only if
				// no fresher commit raced in between — never clobbers one.
				c.Invalidate(k, gen)
			}
		}(w, c)
	}
	wg.Wait()
	// Coherence: the daemon either holds the last-writer entry or a
	// guard-passing invalidate removed it; exports always match Len.
	if got := len(srv.Store().Export()); got != srv.Store().Len() {
		t.Fatalf("export %d entries, Len %d", got, srv.Store().Len())
	}
	if c := srv.Store().Counters(); c.Commits != 80 {
		t.Fatalf("daemon saw %d commits, want 80", c.Commits)
	}
}

// TestDegradeToFallback: a dead daemon spends the retry budget once, the
// client flips permanently to its process-local fallback, and OnDegrade
// fires exactly once — sessions keep getting store answers throughout.
func TestDegradeToFallback(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close() // nothing listens: every dial is refused

	var fired atomic.Int32
	c := remote.New(remote.Config{
		BaseURL: url, MaxRetries: 1,
		RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
		OnDegrade: func(error) { fired.Add(1) },
	})

	k := store.Key{Bench: "pr", Input: "uni", Machine: "clx"}
	if gen := c.Commit(k, store.Entry{Distance: 7}); gen == 0 {
		t.Fatal("commit against a dead daemon returned gen 0 instead of falling back")
	}
	if !c.Degraded() {
		t.Fatal("client did not degrade after exhausting retries")
	}
	if e, _, ok := c.Lookup(k); !ok || e.Distance != 7 {
		t.Fatalf("fallback lost the committed entry: %+v, %v", e, ok)
	}
	// More failures must not re-fire the hook.
	c.Commit(store.Key{Bench: "bc"}, store.Entry{Distance: 1})
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnDegrade fired %d times, want exactly 1", n)
	}
}

// TestDegradeMidRun: a daemon that dies between operations takes its
// entries with it — the fallback starts cold (documented trade: liveness
// over hit rate) but every subsequent operation still answers.
func TestDegradeMidRun(t *testing.T) {
	srv, err := stored.New(stored.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := remote.New(remote.Config{
		BaseURL: ts.URL, MaxRetries: 1,
		RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
	})

	k := store.Key{Bench: "sssp", Input: "uni", Machine: "hsw"}
	if gen := c.Commit(k, store.Entry{Distance: 5}); gen == 0 {
		t.Fatal("commit against the live daemon failed")
	}
	ts.Close() // kill -9, as far as the client can tell

	if _, _, ok := c.Lookup(k); ok {
		t.Fatal("post-degrade lookup served a daemon entry from the cold fallback")
	}
	if !c.Degraded() {
		t.Fatal("client did not degrade when the daemon died mid-run")
	}
	if gen := c.Commit(k, store.Entry{Distance: 6}); gen == 0 {
		t.Fatal("fallback refused a commit")
	}
	if e, _, ok := c.Lookup(k); !ok || e.Distance != 6 {
		t.Fatalf("fallback entry = %+v, %v", e, ok)
	}
}
