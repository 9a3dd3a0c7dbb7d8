// Chaos acceptance suite: the fleet under simultaneous disk, controller,
// and crash faults. Everything here is seeded — fault schedules are
// hash-derived from (seed, key, ordinal), never drawn from an RNG — so a
// failure reproduces exactly from the test name and seed alone.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
)

// newGated builds a fleet whose workers have not started yet; start()
// launches them. Everything submitted before start() is journaled before
// the first dispatch, which is what makes a one-worker run's *whole*
// journal deterministic: under a live pool a submitter's "queued" records
// race the worker's records (even that session's own "admitted" — the
// item is visible to workers before its queued record is appended), so
// only per-session projections are comparable. Recover has the same
// shape: re-admit, open the epoch, then start the workers.
func newGated(cfg Config) (f *Fleet, start func()) {
	f = newFleet(cfg)
	f.initPersist(nil)
	return f, f.startWorkers
}

// chaosSubmit queues n seeded sessions drawn from crashPairs.
func chaosSubmit(t *testing.T, f *Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		spec := crashPairs[i%len(crashPairs)]
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
}

// auditDispositions checks the journal's admission/store pairing: every
// admitted dispatch carries exactly one store disposition (store-hit,
// store-translated, store-miss, or store-bypass) for its (session,
// attempt), and no disposition appears without an admission.
func auditDispositions(t *testing.T, events []Event) {
	t.Helper()
	type key struct{ session, attempt int }
	admitted := make(map[key]int)
	dispositions := make(map[key]int)
	for _, e := range events {
		k := key{e.Session, e.Attempt}
		switch e.Type {
		case "admitted":
			admitted[k]++
		case "store-hit", "store-translated", "store-miss", "store-bypass":
			dispositions[k]++
		}
	}
	for k, n := range admitted {
		if dispositions[k] != n {
			t.Errorf("session %d attempt %d: %d admissions but %d store dispositions",
				k.session, k.attempt, n, dispositions[k])
		}
	}
	for k, n := range dispositions {
		if admitted[k] == 0 {
			t.Errorf("session %d attempt %d: %d store dispositions with no admission",
				k.session, k.attempt, n)
		}
	}
}

// TestChaosCombinedFaultsInvariants runs the fleet under disk faults and
// controller faults at once: sessions must neither be lost nor
// duplicated, every admitted attempt must carry exactly one store
// disposition, and the fleet must finish every session despite the WAL
// degrading and re-arming underneath it.
func TestChaosCombinedFaultsInvariants(t *testing.T) {
	const sessions = 48
	dir := t.TempDir()
	disk := faults.NewDisk(faults.DiskConfig{
		Seed: 7, WriteRate: 0.02, SyncRate: 0.02,
	})
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 4,
		StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 8,
		Faults:     faults.New(faults.Config{Seed: 11, Rate: 0.2}),
		MaxRetries: 2,
		DiskFaults: disk, RearmBackoff: 8,
	})
	defer f.Close()
	chaosSubmit(t, f, sessions)
	f.Drain()

	all := f.Sessions()
	if len(all) != sessions {
		t.Fatalf("fleet tracks %d sessions, submitted %d", len(all), sessions)
	}
	seen := make(map[int]bool)
	for _, s := range all {
		if seen[s.ID] {
			t.Fatalf("session ID %d duplicated", s.ID)
		}
		seen[s.ID] = true
		if !s.State().Terminal() {
			t.Fatalf("session %d not terminal under chaos: %v", s.ID, s.State())
		}
	}
	auditDispositions(t, f.Journal().Events())

	// The fault schedule must actually have fired — a chaos test that
	// injected nothing proves nothing.
	if disk.Injected() == 0 {
		t.Fatal("disk injector never fired; raise the rates or the session count")
	}
	snap := f.Snapshot()
	if snap.PersistDegradations == 0 {
		t.Fatal("disk faults fired but persistence never degraded")
	}
}

// TestChaosDeterministicSameSeed pins the reproducibility contract at the
// fleet level: two runs with identical seeds and a serialized submission
// schedule (drain between submits, so the only interleaving left is a
// session's own "queued" against its "admitted") produce identical
// journals (modulo wall-clock stamps and that one race) and identical
// injected fault schedules.
func TestChaosDeterministicSameSeed(t *testing.T) {
	run := func() ([]Event, map[string]int) {
		dir := t.TempDir()
		disk := faults.NewDisk(faults.DiskConfig{
			Seed: 7, WriteRate: 0.03, SyncRate: 0.03,
		})
		f := New(Config{
			Machine: machine.CascadeLake(), Workers: 1,
			StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 8,
			Faults:     faults.New(faults.Config{Seed: 11, Rate: 0.2}),
			MaxRetries: 2,
			DiskFaults: disk, RearmBackoff: 6,
		})
		for i := 0; i < 24; i++ {
			spec := crashPairs[i%len(crashPairs)]
			spec.Seed = int64(i + 1)
			if _, err := f.Submit(spec); err != nil {
				t.Fatal(err)
			}
			f.Drain()
		}
		f.Close()
		return f.Journal().Events(), disk.ByOp()
	}
	evA, opsA := run()
	evB, opsB := run()

	if len(evA) != len(evB) {
		t.Fatalf("journal lengths differ across identical runs: %d vs %d", len(evA), len(evB))
	}
	// Submit races the one worker for the journal lock, so a session's
	// "queued" record may land behind its own "admitted" (DESIGN.md §11.4) in
	// one run and in front of it in the other. That one race is normalised
	// away — a late queued record moves in front of its session's first
	// event and Seq is renumbered — and the whole journal is compared, so
	// cross-session order and the place of every fleet-level event stay
	// pinned.
	normalise := func(events []Event) []Event {
		out := make([]Event, 0, len(events))
		first := make(map[int]int) // session -> index in out of its first event
		for _, e := range events {
			at, started := first[e.Session]
			if e.Type != "queued" || !started {
				if !started && e.Session >= 0 {
					first[e.Session] = len(out)
				}
				out = append(out, e)
				continue
			}
			out = slices.Insert(out, at, e)
			for id, i := range first {
				if i >= at && id != e.Session {
					first[id] = i + 1
				}
			}
		}
		for i := range out {
			out[i].Seq, out[i].Wall = i, 0
		}
		return out
	}
	evA, evB = normalise(evA), normalise(evB)
	for i := range evA {
		ja, _ := json.Marshal(evA[i])
		jb, _ := json.Marshal(evB[i])
		if string(ja) != string(jb) {
			t.Fatalf("event %d differs across identical runs:\n%s\n%s", i, ja, jb)
		}
	}
	for op, n := range opsA {
		if opsB[op] != n {
			t.Fatalf("injected %s faults differ across identical runs: %d vs %d", op, n, opsB[op])
		}
	}
	if len(opsA) == 0 {
		t.Fatal("no faults injected; the determinism check exercised nothing")
	}
}

// TestChaosRearmArcHeals drives the full self-healing arc: one injected
// fsync fault degrades persistence, the re-arm countdown runs down in
// journal events (the virtual clock), the re-arm rolls a fresh WAL with
// the store at its head and the open sessions seeded, and the fleet reports itself active again — with
// the whole arc visible as journal events and health lines.
func TestChaosRearmArcHeals(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 2,
		StateDir: dir, Fsync: wal.SyncAlways,
		DiskFaults:   faults.NewDisk(faults.DiskConfig{Seed: 3, SyncRate: 1, MaxFaults: 1}),
		RearmBackoff: 4,
	})
	chaosSubmit(t, f, 12)
	f.Drain()

	var sawDegrade, sawRearm, sawRearmed bool
	for _, e := range f.Journal().Events() {
		switch e.Type {
		case "persist-degraded":
			sawDegrade = true
		case "persist-rearm":
			if !sawDegrade {
				t.Fatal("persist-rearm journaled before persist-degraded")
			}
			sawRearm = true
		case "persist-rearmed":
			if !sawRearm {
				t.Fatal("persist-rearmed journaled before persist-rearm")
			}
			sawRearmed = true
		}
	}
	if !sawDegrade || !sawRearm || !sawRearmed {
		t.Fatalf("incomplete re-arm arc: degraded=%v rearm=%v rearmed=%v",
			sawDegrade, sawRearm, sawRearmed)
	}

	snap := f.Snapshot()
	if snap.Persistence != "active" {
		t.Fatalf("persistence = %q after healing, want active", snap.Persistence)
	}
	if snap.PersistDegradations != 1 || snap.PersistRearms != 1 {
		t.Fatalf("arc counters: %d degradations, %d re-arms; want 1 and 1",
			snap.PersistDegradations, snap.PersistRearms)
	}
	render := snap.Render()
	if !strings.Contains(render, "re-armed 1x after 1 degradations") {
		t.Fatalf("Render hides the re-arm arc:\n%s", render)
	}
	if !strings.Contains(render, "chaos          1 disk faults injected") {
		t.Fatalf("Render hides the injected fault:\n%s", render)
	}
	f.Close()

	// The re-seeded WAL must be a valid recovery source: everything the
	// fleet finished is terminal on disk, and a recovered fleet warm-starts
	// from the store the rolls' heads carried.
	_, sessions, terminal := journalLedger(t, dir)
	if sessions == 0 || sessions != terminal {
		t.Fatalf("re-seeded ledger: %d sessions, %d terminal", sessions, terminal)
	}
	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatalf("Recover after re-arm: %v", err)
	}
	defer f2.Close()
	if rec.Sessions != sessions || rec.Terminal != terminal {
		t.Fatalf("recovery saw %d/%d sessions/terminal, ledger %d/%d",
			rec.Sessions, rec.Terminal, sessions, terminal)
	}
	if rec.StoreEntries == 0 {
		t.Fatal("the journal's head carried no store entries")
	}
}

// TestChaosKillUnderActiveDiskFaults is the crash-under-chaos acceptance
// test: a fleet runs with live disk faults (degrading and re-arming as it
// goes), then dies abruptly — simulated by tearing the WAL tail at a
// fault-injector-chosen offset, exactly what a kill -9 mid-append leaves
// behind. Recovery must account for every session the surviving journal
// knows, finish the unfinished, and keep the salvaged store usable. One
// session is still in flight at the kill, so the surviving journal always
// knows it: an epoch holds open sessions only, and a re-arm that lands
// after every other session has finished would otherwise leave nothing to
// recover.
func TestChaosKillUnderActiveDiskFaults(t *testing.T) {
	const sessions = 32
	dir := t.TempDir()
	disk := faults.NewDisk(faults.DiskConfig{Seed: 13, WriteRate: 0.04, TornTailBytes: 96})
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 2,
		StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30,
		DiskFaults: disk, RearmBackoff: 8,
	})
	entered, release := make(chan struct{}), make(chan struct{})
	hold := rpgcore.Config{FaultHook: func(stage string) error {
		if stage != "profile" {
			return nil
		}
		close(entered)
		<-release
		return errors.New("the process is gone")
	}}
	held, err := f.Submit(SessionSpec{Bench: "is", Seed: 1000, Config: &hold})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	chaosSubmit(t, f, sessions)
	for _, s := range f.Sessions() {
		if s != held {
			<-s.Finished()
		}
	}

	// Simulated kill -9: tear the journal's tail mid-record and never run
	// the clean-close path. (If an injected fault has the WAL degraded at
	// this instant the file is already frozen at the fault point — an even
	// harsher crash surface — so the tear is best-effort.)
	f.persist.mu.Lock()
	if !f.persist.degraded {
		f.persist.log.AbortTorn(disk.TornTail(journalFile))
	}
	f.persist.mu.Unlock()

	wantKeys, sessionsOnDisk, terminalOnDisk := journalLedger(t, dir)
	if sessionsOnDisk == 0 {
		t.Fatal("no sessions survived on disk; the crash surface is empty")
	}

	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatalf("Recover under torn WAL: %v", err)
	}
	defer f2.Close()
	if rec.Sessions != sessionsOnDisk {
		t.Fatalf("recovery saw %d sessions, ledger saw %d", rec.Sessions, sessionsOnDisk)
	}
	if rec.Terminal != terminalOnDisk {
		t.Fatalf("recovery counted %d terminal, ledger counted %d", rec.Terminal, terminalOnDisk)
	}
	if rec.Terminal+len(rec.Requeued) != rec.Sessions {
		t.Fatalf("sessions lost in recovery: %d terminal + %d requeued != %d",
			rec.Terminal, len(rec.Requeued), rec.Sessions)
	}
	f2.Drain()
	for _, s := range rec.Requeued {
		if !s.State().Terminal() {
			t.Fatalf("requeued session %d never finished after the chaos crash", s.ID)
		}
	}
	// Salvaged store entries stay usable: a fresh session on a recovered
	// key warm-starts.
	if len(wantKeys) > 0 {
		var spec SessionSpec
		for k := range wantKeys {
			spec = SessionSpec{Bench: k.Bench, Input: k.Input, Seed: 9001}
			break
		}
		s, err := f2.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		f2.Drain()
		if !s.State().Terminal() || s.State() == Failed {
			t.Fatalf("post-recovery session: %v (err %v)", s.State(), s.Err())
		}
		if !s.Warm() {
			t.Fatal("session on a salvaged key did not warm-start")
		}
	}

	// Shut the crashed fleet down last; its state dir writes no longer
	// matter.
	close(release)
	f.Close()
}

// TestChaosZeroKnobsByteIdentical is the blast-radius guard: a fleet
// carrying a zero-rate disk injector and the default re-arm knobs must be
// indistinguishable from a fleet built before the chaos layer existed —
// identical journal events (modulo wall stamps), no new snapshot JSON
// keys, no new Render lines.
func TestChaosZeroKnobsByteIdentical(t *testing.T) {
	run := func(chaos bool) ([]Event, Snapshot) {
		cfg := Config{
			Machine: machine.CascadeLake(), Workers: 1,
			StateDir: t.TempDir(), SnapshotEvery: 8,
		}
		if chaos {
			cfg.DiskFaults = faults.NewDisk(faults.DiskConfig{Seed: 999})
			cfg.RearmBackoff = 0 // default
		}
		f, start := newGated(cfg)
		chaosSubmit(t, f, 16)
		start()
		f.Drain()
		f.Close()
		return f.Journal().Events(), f.Snapshot()
	}
	evPlain, _ := run(false)
	evChaos, snapChaos := run(true)

	if len(evPlain) != len(evChaos) {
		t.Fatalf("zero-knob chaos changed the journal length: %d vs %d", len(evPlain), len(evChaos))
	}
	for i := range evPlain {
		a, b := evPlain[i], evChaos[i]
		a.Wall, b.Wall = 0, 0
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("zero-knob chaos changed event %d:\n%s\n%s", i, ja, jb)
		}
	}

	raw, err := json.Marshal(snapChaos)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"persist_degradations", "persist_rearms", "persist_rearm_in",
		"disk_faults_injected", "handler_panics",
	} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("zero-knob snapshot leaks %q:\n%s", key, raw)
		}
	}
	render := snapChaos.Render()
	for _, line := range []string{"chaos", "re-arm"} {
		if strings.Contains(render, line) {
			t.Fatalf("zero-knob Render leaks %q:\n%s", line, render)
		}
	}
}

// TestRecoverManifestBadCRC corrupts the head of journal.wal, the records
// that stand in for the store and scheduler state: a CRC-breaking byte
// flip in the head's last store entry ends the valid prefix there. With one
// file there is no second copy to replay the lost entry from, so recovery
// must keep exactly the head records before the flip — every entry the
// salvaged head still holds, replayed over nothing — report the damage,
// re-admit nothing it cannot read, and serve what survived.
func TestRecoverManifestBadCRC(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 2,
		StateDir: dir, SnapshotEvery: 2,
	})
	for i, spec := range crashPairs {
		spec.Seed = int64(i + 1)
		if _, err := f.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	f.Close()

	jp := filepath.Join(dir, journalFile)
	recs, sal, err := wal.ReadAll(jp)
	if err != nil || !sal.Clean() {
		t.Fatalf("read the closed journal: %v (%s)", err, sal)
	}
	// The head's store entries, and the byte range of the last one.
	var entries []Key
	for _, rec := range recs {
		var ke KeyedEntry
		if json.Unmarshal(rec, &ke) == nil && ke.Key.Bench != "" {
			entries = append(entries, ke.Key)
		}
	}
	if len(entries) < 2 {
		t.Fatalf("the head holds %d store entries; the corruption test needs two", len(entries))
	}
	last, err := json.Marshal(entries[len(entries)-1])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, append([]byte(`{"key":`), last...))
	if at < 0 {
		t.Fatal("the head's last store entry is not in the file")
	}
	data[at+2] ^= 0xFF
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantKeys, _, _ := journalLedger(t, dir)
	if len(wantKeys) != len(entries)-1 {
		t.Fatalf("the salvaged ledger holds %d keys, want the %d before the flip", len(wantKeys), len(entries)-1)
	}

	f2, rec, err := Recover(dir, Config{Machine: machine.CascadeLake(), Workers: 2})
	if err != nil {
		t.Fatalf("Recover with a corrupt head: %v", err)
	}
	defer f2.Close()
	if rec.JournalSalvage.Clean() || rec.JournalSalvage.Reason != "record failed checksum" {
		t.Fatalf("corrupt head went unreported: salvage %q", rec.JournalSalvage)
	}
	if rec.StoreEntries != len(wantKeys) || rec.Replayed != 0 || len(rec.Requeued) != 0 {
		t.Fatalf("recovered %d entries, %d replayed, %d requeued; want %d, 0, 0",
			rec.StoreEntries, rec.Replayed, len(rec.Requeued), len(wantKeys))
	}
	// The salvaged store must serve: a session on a surviving key
	// warm-starts.
	var spec SessionSpec
	for k := range wantKeys {
		spec = SessionSpec{Bench: k.Bench, Input: k.Input, Seed: 777}
		break
	}
	s, err := f2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	f2.Drain()
	if !s.Warm() {
		t.Fatal("session on a surviving key did not warm-start")
	}
}
