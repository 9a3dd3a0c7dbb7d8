// Networked crash recovery: the acceptance test observes a kill -9 and a
// -resume restart entirely through the client API. A helper process runs
// a real daemon on a loopback listener; the parent submits sessions over
// HTTP, SIGKILLs the helper once store commits are durable, restarts it
// in resume mode, and then every pre-crash session ID must still resolve
// to a terminal state through fleetclient, and every committed store entry
// must be in the store the restarted helper recovered.
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
// fleet on a loopback port, publishes its store's keys as recovered and
// then the bound address through files, and parks forever — the kill is
// its only exit.
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
	// The store as recovered: Recover has started the workers, but no
	// re-admitted session has had time to finish a search, the only thing
	// that can drop an entry Import gave a full reuse budget.
	entries, err := json.Marshal(srv.Fleet().Store().Export())
	if err != nil {
		t.Fatal(err)
	}
	// Write-then-rename so the parent never reads a torn file; the keys go
	// first, so a published address vouches for them.
	for _, f := range []struct {
		path string
		data []byte
	}{
		{os.Getenv("FLEETD_KEYS_FILE"), entries},
		{os.Getenv("FLEETD_ADDR_FILE"), []byte(ln.Addr().String())},
	} {
		if err := os.WriteFile(f.path+".tmp", f.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(f.path+".tmp", f.path); err != nil {
			t.Fatal(err)
		}
	}
	go http.Serve(ln, srv.Handler())
	time.Sleep(10 * time.Minute) // the parent's SIGKILL ends this process
}

// startCrashHelper spawns the helper daemon and returns a client bound to
// its published address, the process handle for the kill, and the store
// keys the helper held when it started serving.
func startCrashHelper(t *testing.T, dir string, resume bool) (*fleetclient.Client, *exec.Cmd, *bytes.Buffer, map[fleet.Key]bool) {
	t.Helper()
	tmp := t.TempDir()
	addrFile, keysFile := filepath.Join(tmp, "addr"), filepath.Join(tmp, "keys")
	cmd := exec.Command(os.Args[0], "-test.run=TestFleetdCrashHelperProcess", "-test.v")
	cmd.Env = append(os.Environ(),
		"FLEETD_WANT_CRASH_HELPER=1",
		"FLEETD_CRASH_DIR="+dir,
		"FLEETD_ADDR_FILE="+addrFile,
		"FLEETD_KEYS_FILE="+keysFile,
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
			data, err := os.ReadFile(keysFile)
			if err != nil {
				t.Fatal(err)
			}
			var entries []fleet.KeyedEntry
			if err := json.Unmarshal(data, &entries); err != nil {
				t.Fatalf("helper's store keys: %v", err)
			}
			held := make(map[fleet.Key]bool, len(entries))
			for _, ke := range entries {
				held[ke.Key] = true
			}
			return fleetclient.New(fleetclient.Config{BaseURL: "http://" + string(addr)}), cmd, &out, held
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
// and assert that no committed store entry was lost and — still through
// the client — that every pre-crash session ID reaches a terminal state.
func TestNetworkedKillResumeThroughClient(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary as a daemon")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	cli, cmd, out, _ := startCrashHelper(t, dir, false)
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

	// Restart in resume mode. No committed store entry may be lost: each
	// key must be in the store the helper recovered.
	cli2, _, out2, recovered := startCrashHelper(t, dir, true)
	for k := range wantKeys {
		if !recovered[k] {
			t.Fatalf("committed entry %+v lost across the crash (recovered %v)", k, recovered)
		}
	}

	// The client keeps its pre-crash session IDs; all of them must resolve
	// to terminal states through the new daemon.
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
}
