// Networked crash recovery: the acceptance test observes a kill -9 and a
// -resume restart entirely through the client API. A helper process runs
// a real daemon on a loopback listener; the parent submits sessions over
// HTTP, SIGKILLs the helper once store commits are durable, restarts it
// in resume mode, and then every pre-crash session ID must still resolve
// to a terminal state and every committed store entry must still answer
// lookups — all via fleetclient, never touching the state dir's fleet
// directly.
package fleetd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetclient"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// TestFleetdCrashHelperProcess is not a test: it is the daemon process
// the networked crash test spawns (and SIGKILLs). It serves a persisted
// fleet on a loopback port, publishes the bound address through a file,
// and parks forever — the kill is its only exit.
func TestFleetdCrashHelperProcess(t *testing.T) {
	if os.Getenv("FLEETD_WANT_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestNetworkedKillResumeThroughClient")
	}
	srv, err := fleetd.New(fleetd.Config{
		Fleet: fleet.Config{
			Machine: machine.CascadeLake(), Workers: 2,
			StateDir: os.Getenv("FLEETD_CRASH_DIR"),
			// Every append hits disk so the parent's kill tears at most one
			// record; the huge SnapshotEvery pins recovery to journal replay.
			Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30,
		},
		Resume: os.Getenv("FLEETD_RESUME") == "1",
	})
	if err != nil {
		t.Fatalf("helper daemon: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Write-then-rename so the parent never reads a torn address.
	addrFile := os.Getenv("FLEETD_ADDR_FILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	time.Sleep(10 * time.Minute) // the parent's SIGKILL ends this process
}

// startCrashHelper spawns the helper daemon and returns a client bound to
// its published address, plus the process handle for the kill.
func startCrashHelper(t *testing.T, dir string, resume bool) (*fleetclient.Client, *exec.Cmd, *bytes.Buffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=TestFleetdCrashHelperProcess", "-test.v")
	cmd.Env = append(os.Environ(),
		"FLEETD_WANT_CRASH_HELPER=1",
		"FLEETD_CRASH_DIR="+dir,
		"FLEETD_ADDR_FILE="+addrFile,
	)
	if resume {
		cmd.Env = append(cmd.Env, "FLEETD_RESUME=1")
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	deadline := time.Now().Add(60 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil {
			return fleetclient.New(fleetclient.Config{BaseURL: "http://" + string(addr)}), cmd, &out
		}
		if time.Now().After(deadline) {
			t.Fatalf("helper never published an address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// committedKeys replays the journal WAL for the store keys whose commits
// were durable at the kill — the entries recovery must not lose.
func committedKeys(t *testing.T, dir string) map[fleet.Key]bool {
	t.Helper()
	recs, _, err := wal.ReadAll(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	keys := make(map[fleet.Key]bool)
	for _, rec := range recs {
		var e fleet.Event
		if err := json.Unmarshal(rec, &e); err != nil || e.Type == "" {
			continue
		}
		k := fleet.Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine}
		switch e.Type {
		case "store-commit":
			keys[k] = true
		case "store-invalidate":
			delete(keys, k)
		}
	}
	return keys
}

// TestNetworkedKillResumeThroughClient is the end-to-end acceptance test:
// submit via the client, kill -9 the daemon mid-run, restart with resume,
// and assert — still through the client — that every pre-crash session ID
// reaches a terminal state and no committed store entry was lost.
func TestNetworkedKillResumeThroughClient(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary as a daemon")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	cli, cmd, out := startCrashHelper(t, dir, false)
	pairs := []fleet.SpecRecord{
		{Bench: "is"}, {Bench: "cg"}, {Bench: "randacc"},
		{Bench: "bfs", Input: "soc-gamma"},
	}
	var ids []int
	for i := 0; i < 24; i++ {
		spec := pairs[i%len(pairs)]
		spec.Seed = int64(i + 1)
		spec.Tenant = []string{"alice", "bob"}[i%2]
		id, err := cli.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	// Kill once at least one store commit is on disk: from here on,
	// recovery has something to lose.
	journal := filepath.Join(dir, "journal.wal")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(journal); err == nil && bytes.Contains(data, []byte(`"store-commit"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no store commit appeared in the daemon's WAL; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // the kill is the expected exit

	wantKeys := committedKeys(t, dir)
	if n, err := fleet.PendingSessions(dir); err != nil || n == 0 {
		t.Fatal("kill left nothing pending; the crash test never raced the fleet")
	}

	// Restart in resume mode. The client keeps its pre-crash session IDs;
	// all of them must resolve to terminal states through the new daemon.
	cli2, _, out2 := startCrashHelper(t, dir, true)
	terminal := map[string]int{}
	for _, id := range ids {
		outc, err := cli2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("pre-crash session %d never resolved after resume: %v\nhelper output:\n%s", id, err, out2.String())
		}
		terminal[outc.State]++
	}
	if got := len(ids); got != 24 {
		t.Fatalf("resolved %d sessions, want 24 (%v)", got, terminal)
	}

	// No committed store entry lost: each key still answers lookups.
	for k := range wantKeys {
		if _, err := cli2.Lookup(ctx, k); err != nil {
			t.Fatalf("committed entry %+v lost across the crash: %v", k, err)
		}
	}
}
