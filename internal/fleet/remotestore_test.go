package fleet

// Shared-store integration: fleets pointed at one rpg2-stored daemon
// share warm profiles across processes, and a daemon dying mid-run
// degrades the fleet to a process-local store — journaled, surfaced in
// the snapshot, and with zero lost sessions — instead of blocking.

import (
	"net/http/httptest"
	"testing"

	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/stored"
)

func newStoreDaemon(t *testing.T) (*stored.Server, *httptest.Server) {
	t.Helper()
	srv, err := stored.New(stored.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestRemoteStoreSharedAcrossFleets: the tentpole claim end to end — a
// profile committed by one fleet process warm-starts sessions in a
// second fleet that shares the same store daemon, something two
// in-process stores can never do.
func TestRemoteStoreSharedAcrossFleets(t *testing.T) {
	daemon, ts := newStoreDaemon(t)

	f1 := New(Config{Machine: machine.CascadeLake(), Workers: 1, StoreAddr: ts.URL})
	spec := SessionSpec{Bench: "is", Seed: 1}
	cold, err := f1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f1.Drain()
	if cold.Warm() || cold.Report().Outcome != rpgcore.Tuned {
		t.Fatalf("cold session: warm=%v outcome=%v", cold.Warm(), cold.Report().Outcome)
	}
	if snap := f1.Snapshot(); snap.RemoteStore != "active" {
		t.Fatalf("fleet 1 remote store status = %q, want active", snap.RemoteStore)
	}
	f1.Close()

	// A different fleet process (fresh Fleet, no shared Go objects) sees
	// the commit through the daemon.
	f2 := New(Config{Machine: machine.CascadeLake(), Workers: 1, StoreAddr: ts.URL})
	defer f2.Close()
	spec.Seed = 100
	warm, err := f2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f2.Drain()
	if !warm.Warm() {
		t.Fatal("second fleet missed the profile the first fleet committed to the shared daemon")
	}
	if warm.Report().Costs.PDEdits >= cold.Report().Costs.PDEdits {
		t.Fatalf("daemon-seeded session used %d probes, cold used %d", warm.Report().Costs.PDEdits, cold.Report().Costs.PDEdits)
	}

	c := daemon.Store().Counters()
	if c.Commits < 1 || c.Hits < 1 || c.Misses < 1 {
		t.Fatalf("daemon counters %+v: want both fleets' traffic accounted there", c)
	}
}

// TestRemoteStoreDegradeKeepsSessionsFinishing: kill the store daemon
// mid-run. The fleet must journal a fleet-level store-degraded event,
// report the degraded status in its snapshot, and still finish every
// session on its process-local fallback.
func TestRemoteStoreDegradeKeepsSessionsFinishing(t *testing.T) {
	_, ts := newStoreDaemon(t)

	f := New(Config{Machine: machine.CascadeLake(), Workers: 2, StoreAddr: ts.URL})
	defer f.Close()
	first, err := f.Submit(SessionSpec{Bench: "is", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if !first.State().Terminal() {
		t.Fatalf("pre-kill session state = %v", first.State())
	}

	ts.Close() // kill -9, as far as the fleet can tell

	var after []*Session
	for i := 0; i < 4; i++ {
		s, err := f.Submit(SessionSpec{Bench: "is", Seed: int64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		after = append(after, s)
	}
	f.Drain()
	for _, s := range after {
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("session %d lost to the dead store daemon: state %v (err %v)",
				s.ID, s.State(), s.Err())
		}
	}

	snap := f.Snapshot()
	if snap.RemoteStore != "degraded" || snap.RemoteStoreError == "" {
		t.Fatalf("snapshot remote store = %q (%q), want degraded with a cause",
			snap.RemoteStore, snap.RemoteStoreError)
	}
	found := false
	for _, e := range f.Journal().Events() {
		if e.Session == -1 && e.Type == "store-degraded" {
			found = true
			if e.Err == "" {
				t.Fatal("store-degraded event carries no error")
			}
		}
	}
	if !found {
		t.Fatal("no fleet-level store-degraded event journaled")
	}
}

// TestRemoteStoreZeroValueUnchanged: with StoreAddr unset the fleet's
// snapshot carries no remote-store fields at all — the byte-identity
// contract for every existing run.
func TestRemoteStoreZeroValueUnchanged(t *testing.T) {
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1})
	defer f.Close()
	if _, err := f.Submit(SessionSpec{Bench: "is", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	snap := f.Snapshot()
	if snap.RemoteStore != "" || snap.RemoteStoreError != "" {
		t.Fatalf("zero-knob snapshot leaks remote-store fields: %q / %q",
			snap.RemoteStore, snap.RemoteStoreError)
	}
}
