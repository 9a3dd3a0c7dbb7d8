// Crash-recovery acceptance tests. The centrepiece re-execs the test
// binary as a fleet, SIGKILLs it mid-run (a real kill -9, not a simulated
// one), and recovers in-process, asserting the issue's two invariants: no
// committed store entry lost, no submitted session lost.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpg2/internal/admission"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// crashPairs are the workloads the crash tests run; they all reliably tune
// so the journal fills with store commits for recovery to protect.
var crashPairs = []SessionSpec{
	{Bench: "is"},
	{Bench: "cg"},
	{Bench: "randacc"},
	{Bench: "bfs", Input: "soc-gamma"},
}

// TestCrashHelperProcess is not a test: it is the victim process the
// kill-mid-run test spawns. It runs a persisted fleet over enough sessions
// that the parent can SIGKILL it with work in every state — queued,
// in-flight, and terminal — then parks forever (the kill is its only exit).
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv("FLEET_WANT_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestKillMidRunRecoverLosesNothing")
	}
	cfg := Config{
		Machine: machine.CascadeLake(), Workers: 2,
		StateDir: os.Getenv("FLEET_CRASH_DIR"),
		// Every append hits disk, so the parent's kill tears at most the
		// record being written; a huge SnapshotEvery pins recovery to the
		// birth epoch's journal (the clean-close test covers rolls).
		Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30,
	}
	f := New(cfg)
	for i := 0; i < 48; i++ {
		spec := crashPairs[i%len(crashPairs)]
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	time.Sleep(time.Minute) // the parent's SIGKILL ends this process
}

// journalLedger independently replays a journal WAL file: the committed
// store keys that must survive recovery (the head's entries, then the
// store records after it), and per-session terminality. It
// deliberately re-derives the invariants from the raw file rather than
// trusting Recover's own accounting — but it must mirror recovery's
// *rules*: any session-tagged event other than a store or breaker record
// makes the session known to the journal (a roll seeds a finished
// session's store records without its history), and a session whose
// queued record never made it to disk has no spec to re-admit, so recovery
// books it as a terminal record rather than losing it.
func journalLedger(t *testing.T, dir string) (keys map[Key]bool, sessions, terminal int) {
	t.Helper()
	recs, _, err := wal.ReadAll(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	keys = make(map[Key]bool)
	type led struct {
		queued bool // a queued record with a spec survived
		done   bool // saw a terminal event last
	}
	state := make(map[int]*led)
	for _, rec := range recs {
		var e Event
		if err := json.Unmarshal(rec, &e); err != nil || e.Type == "" {
			// The head's store entries are committed keys too.
			var ke KeyedEntry
			if json.Unmarshal(rec, &ke) == nil && ke.Key.Bench != "" {
				keys[ke.Key] = true
			}
			continue
		}
		switch e.Type {
		case "store-commit":
			keys[Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine}] = true
			continue
		case "store-invalidate":
			delete(keys, Key{Bench: e.Bench, Input: e.Input, Machine: e.Machine})
			continue
		case "breaker-open", "breaker-closed":
			continue
		}
		if e.Session < 0 {
			continue
		}
		tr := state[e.Session]
		if tr == nil {
			tr = &led{}
			state[e.Session] = tr
		}
		switch e.Type {
		case "queued":
			tr.queued = e.Spec != nil
		case "retry-scheduled", "retune-scheduled":
			tr.done = false
		case "session-done", "session-degraded":
			tr.done = true
		case "session-failed":
			tr.done = e.Err != ErrCanceled.Error()
		}
	}
	for _, tr := range state {
		sessions++
		if tr.done || !tr.queued {
			terminal++
		}
	}
	return keys, sessions, terminal
}

// TestKillMidRunRecoverLosesNothing is the acceptance test: run a fleet in
// a child process, kill -9 it once store commits are durable, then Recover
// from its state dir. Every pre-crash session must end terminal (directly
// or via re-admission), every committed store entry must survive, and
// fresh sessions on recovered keys must warm-start.
func TestKillMidRunRecoverLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperProcess", "-test.v")
	cmd.Env = append(os.Environ(), "FLEET_WANT_CRASH_HELPER=1", "FLEET_CRASH_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill once at least one store commit is on disk: from here on,
	// recovery has something to lose.
	journal := filepath.Join(dir, journalFile)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(journal); err == nil && bytes.Contains(data, []byte(`"store-commit"`)) {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no store commit appeared in the child's WAL; child output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // the kill is the expected exit

	wantKeys, sessions, terminal := journalLedger(t, dir)
	if sessions == 0 {
		t.Fatalf("ledger saw no sessions; child output:\n%s", out.String())
	}

	f, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer f.Close()

	if rec.Sessions != sessions {
		t.Fatalf("recovery saw %d sessions, ledger saw %d", rec.Sessions, sessions)
	}
	if rec.Terminal != terminal {
		t.Fatalf("recovery counted %d terminal, ledger counted %d", rec.Terminal, terminal)
	}
	if rec.Terminal+len(rec.Requeued) != rec.Sessions {
		t.Fatalf("sessions lost: %d terminal + %d requeued != %d seen",
			rec.Terminal, len(rec.Requeued), rec.Sessions)
	}
	if rec.StoreEntries != len(wantKeys) {
		t.Fatalf("recovered %d store entries, ledger says %d survive", rec.StoreEntries, len(wantKeys))
	}
	if rec.Epoch != rec.PrevEpoch+1 {
		t.Fatalf("epoch %d does not succeed %d", rec.Epoch, rec.PrevEpoch)
	}

	// Finish the recovered work: every re-admitted session must reach a
	// terminal state, and in-flight-at-crash re-runs must not warm-start
	// (retry discipline: the interrupted attempt's profile is suspect).
	f.Drain()
	for _, s := range rec.Requeued {
		if !s.State().Terminal() {
			t.Fatalf("requeued session %d never finished: %v", s.ID, s.State())
		}
		if s.Attempt() > 0 && s.Warm() {
			t.Fatalf("in-flight re-run %d warm-started", s.ID)
		}
	}

	// Recovered entries must be reusable: a fresh session on a recovered
	// key warm-starts from the pre-crash profile.
	if len(wantKeys) > 0 {
		var spec SessionSpec
		for k := range wantKeys {
			spec = SessionSpec{Bench: k.Bench, Input: k.Input, Seed: 9001}
			break
		}
		before := f.Snapshot().Store.Hits
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		f.Drain()
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("post-recovery session state = %v (err %v)", s.State(), s.Err())
		}
		if !s.Warm() {
			t.Fatal("session on a recovered key did not warm-start")
		}
		if hits := f.Snapshot().Store.Hits; hits <= before {
			t.Fatalf("warm-hit counter did not move: %d -> %d", before, hits)
		}
	}
}

// TestCleanCloseRecover: a cleanly closed state dir resumes from its final
// roll with nothing to requeue, every session's outcome and the full store
// intact.
func TestCleanCloseRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Machine: machine.CascadeLake(), Workers: 2, StateDir: dir}
	f := New(cfg)
	for i, spec := range crashPairs {
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	want := f.Store().Export()
	f.Close()

	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if len(rec.Requeued) != 0 {
		t.Fatalf("clean close requeued %d sessions", len(rec.Requeued))
	}
	if rec.Sessions != len(crashPairs) || rec.Terminal != len(crashPairs) {
		t.Fatalf("accounting = %d sessions / %d terminal, want %d / %d",
			rec.Sessions, rec.Terminal, len(crashPairs), len(crashPairs))
	}
	got := f2.Store().Export()
	if len(got) != len(want) {
		t.Fatalf("store entries = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Entry.Distance != want[i].Entry.Distance {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
	if !rec.JournalSalvage.Clean() {
		t.Fatalf("clean close reported salvage: %s", rec.JournalSalvage)
	}
}

// TestRecoverOlderPriorityJournal: a state dir written while sessions
// still carried an admission priority and the scheduler counted quota
// stalls recovers. Its queued records (event and spec) carry "priority",
// its head's scheduler stats "quota_stalls"; the WAL decode ignores both,
// and the two sessions are re-admitted and dispatched in submission order,
// although the later one was submitted at the higher priority.
func TestRecoverOlderPriorityJournal(t *testing.T) {
	dir := t.TempDir()
	recs := []string{
		`{"wal":"journal","epoch":1,"seq":2}`,
		`{"sched":{"stats":{"quota_stalls":3}}}`,
		`{"seq":0,"wall":0.001,"session":0,"type":"queued","bench":"is","kind":"optimize","machine":"cascadelake","state":"queued","priority":10,"spec":{"bench":"is","priority":10,"seed":1,"run_seconds":-1}}`,
		`{"seq":1,"wall":0.002,"session":1,"type":"queued","bench":"cg","kind":"optimize","machine":"cascadelake","state":"queued","priority":30,"spec":{"bench":"cg","priority":30,"seed":2,"run_seconds":-1}}`,
	}
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i] = []byte(r)
	}
	if err := wal.WriteAtomic(filepath.Join(dir, journalFile), payloads); err != nil {
		t.Fatal(err)
	}

	f, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(rec.Requeued) != 2 || rec.Requeued[0].Spec.Bench != "is" || rec.Requeued[1].Spec.Bench != "cg" {
		t.Fatalf("requeued %+v, want is then cg", rec.Requeued)
	}
	f.Drain()
	var order []int
	for _, e := range f.Journal().Events() {
		if e.Type == "admitted" {
			order = append(order, e.Session)
		}
	}
	if want := []int{rec.Requeued[0].ID, rec.Requeued[1].ID}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v, want submission order %v", order, want)
	}
	for _, s := range rec.Requeued {
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("recovered session %d ended %v (err %v)", s.ID, s.State(), s.Err())
		}
	}
	if n := f.Snapshot().QuotaStalls; n != 0 {
		t.Fatalf("recovered fleet reports %d quota stalls, want 0", n)
	}
}

// TestRecoverCancelledSessionsResume: sessions a SIGINT drain cancelled
// (ErrCanceled) are interrupted, not finished — resume re-admits them.
func TestRecoverCancelledSessionsResume(t *testing.T) {
	// One session runs; the rest are parked behind the single worker and
	// then cancelled, mimicking an interrupted run's drain.
	dir := t.TempDir()
	cancelled := interruptedStateDir(t, dir)

	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if len(rec.Requeued) != cancelled {
		t.Fatalf("requeued %d, cancelled %d", len(rec.Requeued), cancelled)
	}
	f2.Drain()
	for _, s := range rec.Requeued {
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("resumed session %d state = %v (err %v)", s.ID, s.State(), s.Err())
		}
	}
}

// interruptedStateDir builds a state dir holding an interrupted run: one
// worker, several sessions, a SIGINT-style cancel, clean close. It returns
// how many sessions were cancelled (skipping the test when none were).
func interruptedStateDir(t *testing.T, dir string) int {
	t.Helper()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir})
	for i := 0; i < 6; i++ {
		spec := crashPairs[i%len(crashPairs)]
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	cancelled := f.CancelQueued()
	f.Drain()
	f.Close()
	if cancelled == 0 {
		t.Skip("every session dispatched before the cancel; nothing pending")
	}
	return cancelled
}

func pendingSessions(t *testing.T, dir string) int {
	t.Helper()
	n, err := PendingSessions(dir)
	if err != nil {
		t.Fatalf("PendingSessions: %v", err)
	}
	return n
}

// TestNewRefusesToClobberInterruptedStateDir: New over a state dir whose
// journal still holds unfinished sessions must not destroy them — the
// fleet degrades (surfacing why), the files stay byte-identical, and the
// dir remains recoverable. Config.Overwrite is the explicit opt-out.
func TestNewRefusesToClobberInterruptedStateDir(t *testing.T) {
	dir := t.TempDir()
	cancelled := interruptedStateDir(t, dir)
	if got := pendingSessions(t, dir); got != cancelled {
		t.Fatalf("PendingSessions = %d, want %d", got, cancelled)
	}
	before, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}

	f := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir})
	s, err := f.Submit(SessionSpec{Bench: "is", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if !s.State().Terminal() || s.State() == Failed {
		t.Fatalf("session under refused persistence: %v (err %v)", s.State(), s.Err())
	}
	snap := f.Snapshot()
	if snap.Persistence != "degraded" || !strings.Contains(snap.PersistenceError, "interrupted run") {
		t.Fatalf("snapshot = %q / %q, want degraded with refusal", snap.Persistence, snap.PersistenceError)
	}
	f.Close()

	after, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refusing New still modified the journal")
	}
	if got := pendingSessions(t, dir); got != cancelled {
		t.Fatalf("dir no longer recoverable: PendingSessions = %d, want %d", got, cancelled)
	}

	// The explicit opt-out discards the interrupted run and persists anew.
	f2 := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir, Overwrite: true})
	if snap := f2.Snapshot(); snap.Persistence != "active" {
		t.Fatalf("Overwrite fleet persistence = %q", snap.Persistence)
	}
	f2.Close()
	if got := pendingSessions(t, dir); got != 0 {
		t.Fatalf("overwritten dir still reports %d pending sessions", got)
	}
}

// shardedStateDir builds what an older binary left behind with a
// two-shard store: a valid journal.wal beside a hand-written manifest.wal
// sealing shard-0.wal and shard-1.wal. It returns every file's bytes by
// name.
func shardedStateDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries := legacyRun(t, dir)
	type shardMeta struct {
		Wal    string `json:"wal"`
		Epoch  int    `json:"epoch"`
		Seq    int    `json:"seq"`
		Shard  int    `json:"shard,omitempty"`
		Shards int    `json:"shards,omitempty"`
	}
	writeLegacy(t, dir, "shard-0.wal", shardMeta{Wal: "shard", Epoch: 1, Seq: 99, Shards: 2}, entries[0])
	writeLegacy(t, dir, "shard-1.wal", shardMeta{Wal: "shard", Epoch: 1, Seq: 99, Shard: 1, Shards: 2})
	writeLegacy(t, dir, "manifest.wal", shardMeta{Wal: "manifest", Epoch: 1, Seq: 99, Shards: 2},
		walSched{Sched: &admission.PersistState{}})
	return readDir(t, dir)
}

// twoFileStateDir builds what the previous binary left behind: a
// snapshot.wal holding the store and scheduler state beside the journal.
func twoFileStateDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries := legacyRun(t, dir)
	writeLegacy(t, dir, "snapshot.wal", walMeta{Wal: "snapshot", Epoch: 1, NextID: 0},
		walSched{Sched: &admission.PersistState{}}, entries[0])
	return readDir(t, dir)
}

// legacyRun leaves a journal.wal from one finished session and returns the
// store entries it committed.
func legacyRun(t *testing.T, dir string) []KeyedEntry {
	t.Helper()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir})
	if _, err := f.Submit(SessionSpec{Bench: "is", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	entries := f.Store().Export()
	f.Close()
	if len(entries) == 0 {
		t.Fatal("fixture run committed nothing")
	}
	return entries
}

// writeLegacy writes one older-layout state file of JSON records.
func writeLegacy(t *testing.T, dir, name string, recs ...any) {
	t.Helper()
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i], _ = json.Marshal(r)
	}
	if err := wal.WriteAtomic(filepath.Join(dir, name), payloads); err != nil {
		t.Fatal(err)
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(des))
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = data
	}
	return files
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// legacyLayouts are the older binaries' state dirs, by the files that
// name them.
var legacyLayouts = []struct {
	name  string
	build func(*testing.T, string) map[string][]byte
	files []string
}{
	{"sharded", shardedStateDir, []string{"manifest.wal", "shard-0.wal", "shard-1.wal"}},
	{"two-file", twoFileStateDir, []string{"snapshot.wal"}},
}

// TestNewRefusesShardedStateDir: a state dir in an older snapshot layout —
// the sharded one, or a snapshot.wal beside the journal — holds store
// entries this binary would silently skip, so New refuses it like an
// interrupted run — degraded, naming the files and the way out, nothing on
// disk touched — and Overwrite starts clean and drops the stale files.
func TestNewRefusesShardedStateDir(t *testing.T) {
	for _, layout := range legacyLayouts {
		t.Run(layout.name, func(t *testing.T) {
			dir := t.TempDir()
			before := layout.build(t, dir)
			if _, err := PendingSessions(dir); !errors.Is(err, errLegacyStateDir) {
				t.Fatalf("PendingSessions = %v, want errLegacyStateDir", err)
			}

			f := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir})
			snap := f.Snapshot()
			f.Close()
			if snap.Persistence != "degraded" {
				t.Fatalf("persistence = %q, want degraded", snap.Persistence)
			}
			for _, want := range append([]string{"snapshot layout", "-fresh"}, layout.files...) {
				if !strings.Contains(snap.PersistenceError, want) {
					t.Fatalf("refusal %q does not mention %q", snap.PersistenceError, want)
				}
			}
			if strings.Contains(snap.PersistenceError, "-resume") {
				t.Fatalf("refusal %q offers a -resume the refused dir cannot take", snap.PersistenceError)
			}
			if !sameFiles(before, readDir(t, dir)) {
				t.Fatal("refusing New modified the state dir")
			}

			f2 := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir, Overwrite: true})
			snap = f2.Snapshot()
			f2.Close()
			if snap.Persistence != "active" || snap.StoreEntries != 0 {
				t.Fatalf("Overwrite fleet = %q with %d store entries, want active and empty", snap.Persistence, snap.StoreEntries)
			}
			if left := legacyLayoutFiles(dir); len(left) > 0 {
				t.Fatalf("Overwrite left %v behind", left)
			}
			if got := pendingSessions(t, dir); got != 0 {
				t.Fatalf("overwritten dir reports %d pending sessions", got)
			}
		})
	}
}

// TestRecoverRefusesShardedStateDir: Recover surfaces the same refusal
// instead of recovering the journal without the older files' entries.
func TestRecoverRefusesShardedStateDir(t *testing.T) {
	for _, layout := range legacyLayouts {
		t.Run(layout.name, func(t *testing.T) {
			dir := t.TempDir()
			before := layout.build(t, dir)
			f, _, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 1})
			if err == nil {
				f.Close()
				t.Fatal("Recover accepted an older-layout state dir")
			}
			if !errors.Is(err, errLegacyStateDir) || !strings.Contains(err.Error(), layout.files[0]) || !strings.Contains(err.Error(), "-fresh") {
				t.Fatalf("Recover error = %v", err)
			}
			if !sameFiles(before, readDir(t, dir)) {
				t.Fatal("refusing Recover modified the state dir")
			}
		})
	}
}

// TestRecoverSurvivesInterruptedRecovery: a recovery that dies after
// staging the fresh epoch (head and seed written, staged journal never
// published) leaves the OLD journal whole beside a stage file. A later
// recovery must read the old journal alone — store entries and pending
// sessions from it, nothing lost — and reopen the epoch the dead one
// staged.
func TestRecoverSurvivesInterruptedRecovery(t *testing.T) {
	dir := t.TempDir()
	cancelled := interruptedStateDir(t, dir)
	wantKeys, _, _ := journalLedger(t, dir)

	// Run the real epoch-staging path (what Recover does before workers
	// start) and abandon it mid-way, exactly as a crash would.
	st, err := readState(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir, Overwrite: true}
	half := newFleet(cfg)
	var entries []KeyedEntry
	for _, k := range st.order {
		if e, ok := st.entries[k]; ok {
			entries = append(entries, KeyedEntry{Key: k, Entry: e})
		}
	}
	half.store.Import(entries)
	if st.sched != nil {
		half.sched.Import(*st.sched)
	}
	for _, ps := range st.pending {
		half.submitRecovered(ps.fold.spec.Spec(), ps.attempt)
	}
	p, err := openPersister(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.epoch = st.prevEpoch
	if err := p.beginEpoch(half.journal, half.capture); err != nil {
		t.Fatalf("staging the epoch: %v", err)
	}
	staged := p.epoch
	p.log.Abort() // the crash: staged journal never published
	if _, err := os.Stat(filepath.Join(dir, journalStageFile)); err != nil {
		t.Fatalf("the interrupted roll left no stage file: %v", err)
	}

	// The old journal still names the pending work.
	if got := pendingSessions(t, dir); got != cancelled {
		t.Fatalf("after interrupted recovery PendingSessions = %d, want %d", got, cancelled)
	}

	f, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(rec.Requeued) != cancelled {
		t.Fatalf("requeued %d sessions, want %d", len(rec.Requeued), cancelled)
	}
	if rec.StoreEntries != len(wantKeys) {
		t.Fatalf("recovered %d store entries, want %d", rec.StoreEntries, len(wantKeys))
	}
	if rec.PrevEpoch != staged-1 || rec.Epoch != staged {
		t.Fatalf("epochs %d -> %d, want %d -> %d", rec.PrevEpoch, rec.Epoch, staged-1, staged)
	}
	f.Drain()
	for _, s := range rec.Requeued {
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("requeued session %d state = %v (err %v)", s.ID, s.State(), s.Err())
		}
	}
}

// TestClaimSnapshotSingleWinner: workers racing for the one roll claim —
// a periodic roll across the same store-commit threshold, or a re-arm once
// the backoff has run out — get exactly one grant between them, and no
// second until the roll releases it.
func TestClaimSnapshotSingleWinner(t *testing.T) {
	dir := t.TempDir()
	p, err := openPersister(dir, Config{Fsync: wal.SyncOnClose, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	noState := func() liveState { return liveState{} }
	race := func() (wins, attempt int32) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if a, ok := p.claimRoll(); ok {
					atomic.AddInt32(&wins, 1)
					atomic.StoreInt32(&attempt, int32(a))
				}
			}()
		}
		wg.Wait()
		return wins, attempt
	}

	p.mu.Lock()
	p.commits = 4
	p.mu.Unlock()
	if wins, attempt := race(); wins != 1 || attempt != 0 {
		t.Fatalf("threshold crossing claimed %d times (attempt %d), want one periodic roll", wins, attempt)
	}
	if wins, _ := race(); wins != 0 {
		t.Fatalf("a held claim was granted %d more times", wins)
	}
	if err := p.rollEpoch(NewJournal(), noState, 0); err != nil {
		t.Fatal(err)
	}

	p.fail(errors.New("disk gone"))
	p.mu.Lock()
	p.rearmWait = 0
	p.mu.Unlock()
	if wins, attempt := race(); wins != 1 || attempt != 1 {
		t.Fatalf("an expired backoff was claimed %d times (attempt %d), want one re-arm", wins, attempt)
	}
	if err := p.rollEpoch(NewJournal(), noState, 1); err != nil {
		t.Fatal(err)
	}
	if wins, _ := race(); wins != 0 {
		t.Fatalf("a fresh epoch with no commits was claimed %d times", wins)
	}
	p.close(NewJournal(), noState)
}

// TestRecoverCorruptTail: chop the journal mid-record and leave garbage
// where a roll's stage would be; recovery keeps the valid prefix, reports
// the damage, ignores the stage, and still loses no fully journaled
// commit.
func TestRecoverCorruptTail(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 2, StateDir: dir, SnapshotEvery: 1 << 30})
	for i, spec := range crashPairs {
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	f.Close()

	// Stage file: garbage (a roll torn before its rename).
	if err := os.WriteFile(filepath.Join(dir, journalStageFile), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Journal: chop mid-record to simulate a torn tail.
	jp := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	wantKeys, _, _ := journalLedger(t, dir)

	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if rec.JournalSalvage.Clean() {
		t.Fatal("torn journal tail went unreported")
	}
	if rec.StoreEntries != len(wantKeys) {
		t.Fatalf("recovered %d entries, salvaged ledger says %d", rec.StoreEntries, len(wantKeys))
	}
	f2.Drain()
	for _, s := range rec.Requeued {
		if !s.State().Terminal() {
			t.Fatalf("requeued session %d not terminal", s.ID)
		}
	}
}

// TestRecoverEmptyStateDir: recovering a dir with no state files yields an
// empty, working fleet rather than an error. So does a dir holding only a
// journal head whose scheduler counters carry keys this version no longer
// keeps ("parked", "retunes"): the decoder ignores them and restores the rest.
func TestRecoverEmptyStateDir(t *testing.T) {
	older := t.TempDir()
	if err := wal.WriteAtomic(filepath.Join(older, journalFile), [][]byte{
		[]byte(`{"wal":"journal","epoch":1,"seq":0}`),
		[]byte(`{"sched":{"clock":2.5,"stats":{"retries":1,"parked":2,"retunes":3,"clock":2.5}}}`),
	}); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{t.TempDir(), older} {
		f, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if rec.Sessions != 0 || rec.StoreEntries != 0 || len(rec.Requeued) != 0 {
			t.Fatalf("empty dir recovered state: %+v", rec)
		}
		if snap := f.Snapshot(); dir == older && (snap.Retries != 1 || snap.VirtualClock != 2.5) {
			t.Fatalf("older head restored retries=%d clock=%v, want 1 and 2.5", snap.Retries, snap.VirtualClock)
		}
		s, err := f.Submit(SessionSpec{Bench: "is", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		f.Drain()
		if !s.State().Terminal() {
			t.Fatalf("session state = %v", s.State())
		}
	}
}

// TestRecoverMissingDirErrors: Recover refuses a nonexistent dir (it would
// silently resume nothing) — that is New's job, not Recover's.
func TestRecoverMissingDirErrors(t *testing.T) {
	if _, _, err := Recover(filepath.Join(t.TempDir(), "nope"), Config{Machine: machine.CascadeLake()}); err == nil {
		t.Fatal("Recover of a missing dir succeeded")
	}
	if _, _, err := Recover("", Config{Machine: machine.CascadeLake()}); err == nil {
		t.Fatal("Recover of an empty dir name succeeded")
	}
}

// TestDiskFailureDegrades: the first failed WAL write flips the fleet to
// in-memory mode — sessions keep finishing, and the snapshot surfaces the
// degradation instead of hiding it. The re-arm backoff is longer than the
// run, so the fleet is still degraded at the end; the self-healing arc has
// its own coverage in chaos_test.go.
func TestDiskFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 2, StateDir: dir, RearmBackoff: 1 << 30})
	defer f.Close()
	if snap := f.Snapshot(); snap.Persistence != "active" {
		t.Fatalf("fresh persisted fleet reports %q", snap.Persistence)
	}
	// Yank the WAL's fd out from under the fleet: the next append fails
	// exactly like a dead disk.
	f.persist.mu.Lock()
	f.persist.log.Abort()
	f.persist.mu.Unlock()

	for i, spec := range crashPairs {
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	for _, s := range f.Sessions() {
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("session %d did not survive the disk failure: %v (err %v)", s.ID, s.State(), s.Err())
		}
	}
	snap := f.Snapshot()
	if snap.Persistence != "degraded" {
		t.Fatalf("persistence = %q after disk failure", snap.Persistence)
	}
	if !strings.Contains(snap.Render(), "persistence    degraded") {
		t.Fatalf("Render hides the degradation:\n%s", snap.Render())
	}
}

// TestUnusableStateDirDegradesFromBirth: New with a hopeless state dir
// still returns a working (degraded) fleet.
func TestUnusableStateDirDegradesFromBirth(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1,
		StateDir: filepath.Join(blocker, "sub")}) // MkdirAll through a file fails
	defer f.Close()
	s, err := f.Submit(SessionSpec{Bench: "is", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if !s.State().Terminal() || s.State() == Failed {
		t.Fatalf("session state = %v (err %v)", s.State(), s.Err())
	}
	if snap := f.Snapshot(); snap.Persistence != "degraded" || snap.PersistenceError == "" {
		t.Fatalf("snapshot = %q / %q", snap.Persistence, snap.PersistenceError)
	}
}

// TestRecoverContinuesIDSpaceAfterRoll: a roll drops the history of every
// session that finished before it, so after a crash the journal may name
// none of the sessions clients still hold IDs for. The stamp's next-ID
// floor keeps recovery from handing those IDs out again.
func TestRecoverContinuesIDSpaceAfterRoll(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: dir, SnapshotEvery: 1})
	defer f.Close()
	var last int
	for i, spec := range crashPairs {
		spec.Seed = int64(i + 1)
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		last = s.ID
	}
	f.Drain()
	if snap := f.Snapshot(); snap.WALSnapshots < 2 {
		t.Fatalf("%d rolls; the case needs one after the sessions finished", snap.WALSnapshots)
	}
	// The crash: the state dir as the live fleet left it.
	crashed := t.TempDir()
	for name, data := range readDir(t, dir) {
		if err := os.WriteFile(filepath.Join(crashed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f2, rec, err := Recover(crashed, Config{Machine: machine.CascadeLake(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if rec.Sessions >= len(crashPairs) {
		t.Fatalf("the rolled journal still names %d sessions; the case is vacuous", rec.Sessions)
	}
	s, err := f2.Submit(SessionSpec{Bench: "is", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID <= last {
		t.Fatalf("recovered fleet handed out session ID %d again (pre-crash IDs reach %d)", s.ID, last)
	}
}
