package fleet

import (
	"encoding/json"
	"testing"

	"rpg2/internal/faults"
	"rpg2/internal/machine"
	"rpg2/internal/rpg2"
)

// TestTranslateDistanceScaling pins the latency-ratio arithmetic: the
// distance grows with the target's effective memory latency (CascadeLake
// 228 cycles, Haswell 259), rounds to the nearest integer, and clamps to
// the search range [1, rpg2.MaxDistance].
func TestTranslateDistanceScaling(t *testing.T) {
	cl, hw := machine.CascadeLake(), machine.Haswell()
	cases := []struct {
		src, dst machine.Machine
		d        int
		want     int
	}{
		{cl, hw, 40, 45}, // 40·259/228 = 45.4
		{hw, cl, 40, 35}, // 40·228/259 = 35.2
		{cl, cl, 40, 40}, // same machine: identity
		{cl, hw, 190, rpg2.MaxDistance},
		{hw, cl, 1, 1}, // 0.88 rounds up to the floor
		{cl, hw, 0, 1}, // non-positive input: clamp only
	}
	for _, c := range cases {
		if got := TranslateDistance(c.src, c.dst, c.d); got != c.want {
			t.Errorf("TranslateDistance(%s->%s, %d) = %d, want %d",
				c.src.Name, c.dst.Name, c.d, got, c.want)
		}
	}
}

// TestStoreLookupTranslated covers the sibling scan: deterministic
// machine-name order, stale eviction, reuse-budget consumption, and the
// frozen fast path.
func TestStoreLookupTranslated(t *testing.T) {
	s := NewStore(StoreConfig{MaxReuse: 2})
	k := profileKey()
	if _, _, _, ok := s.LookupTranslated(k); ok {
		t.Fatal("translated lookup on empty store hit")
	}
	// An own-machine entry is never a sibling.
	s.Commit(k, Entry{Distance: 99})
	if _, _, _, ok := s.LookupTranslated(k); ok {
		t.Fatal("own-machine entry served as a sibling")
	}
	sib := func(m string) Key { return Key{Bench: k.Bench, Input: k.Input, Machine: m} }
	s.Commit(sib("haswell"), Entry{Distance: 40})
	s.Commit(sib("aardvark"), Entry{Distance: 7})
	// Two siblings: the first in machine-name order wins, deterministically.
	for i := 0; i < 2; i++ {
		e, src, _, ok := s.LookupTranslated(k)
		if !ok || src.Machine != "aardvark" || e.Distance != 7 {
			t.Fatalf("lookup %d = %+v from %+v, %v", i, e, src, ok)
		}
	}
	// Both serves consumed aardvark's budget; the third serve finds it
	// stale, evicts it, and falls through to the next sibling.
	e, src, _, ok := s.LookupTranslated(k)
	if !ok || src.Machine != "haswell" || e.Distance != 40 {
		t.Fatalf("post-stale lookup = %+v from %+v, %v", e, src, ok)
	}
	c := s.Counters()
	if c.Translations != 3 || c.Stale != 1 || c.Hits != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// Frozen stores serve without consuming budget: haswell has one charge
	// left, yet many frozen lookups keep hitting it.
	s.Freeze()
	for i := 0; i < 5; i++ {
		if _, src, _, ok := s.LookupTranslated(k); !ok || src.Machine != "haswell" {
			t.Fatalf("frozen lookup %d missed", i)
		}
	}
}

// TestStoreRefund covers the reuse-budget refund: generation-guarded, floored
// at zero, and actually restoring a charge a failed warm start consumed.
func TestStoreRefund(t *testing.T) {
	s := NewStore(StoreConfig{MaxReuse: 1})
	k := profileKey()
	s.Commit(k, Entry{Distance: 10})
	_, gen, ok := s.Lookup(k)
	if !ok {
		t.Fatal("lookup missed")
	}
	if s.Refund(k, gen+1) {
		t.Fatal("refund against a wrong generation accepted")
	}
	if !s.Refund(k, gen) {
		t.Fatal("refund refused")
	}
	if s.Refund(k, gen) {
		t.Fatal("double refund accepted with no charge outstanding")
	}
	// The refund restored the single-reuse entry's budget: without it this
	// lookup would find the entry stale and evict it.
	if e, _, ok := s.Lookup(k); !ok || e.Distance != 10 {
		t.Fatalf("entry not restored after refund: %+v, %v", e, ok)
	}
	if c := s.Counters(); c.Refunds != 1 || c.Stale != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestTranslatedSessionEndToEnd is the translation tier's integration test:
// a profile tuned natively on Haswell seeds a CascadeLake session through a
// shared store, with the journal, metrics, and store accounting all
// recording the cross-machine serve.
func TestTranslatedSessionEndToEnd(t *testing.T) {
	st := NewStore(StoreConfig{})
	cl, hw := machine.CascadeLake(), machine.Haswell()

	hf := New(Config{Machine: hw, Workers: 1, Store: st})
	native, err := hf.Submit(SessionSpec{Bench: "is", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hf.Drain()
	hf.Close()
	if native.State() != Done {
		t.Fatalf("native haswell session = %v (err %v)", native.State(), native.Err())
	}
	src, _, ok := st.Lookup(Key{Bench: "is", Machine: hw.Name})
	if !ok {
		t.Fatal("native session committed no entry")
	}

	f := New(Config{Machine: cl, Workers: 1, Store: st, Translate: true})
	defer f.Close()
	s, err := f.Submit(SessionSpec{Bench: "is", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if s.State() != Done {
		t.Fatalf("translated session = %v (err %v)", s.State(), s.Err())
	}
	if !s.Translated() || s.Warm() {
		t.Fatalf("seeding tier: translated=%v warm=%v", s.Translated(), s.Warm())
	}

	wantSeed := TranslateDistance(hw, cl, src.Distance)
	var ev *Event
	for _, e := range f.Journal().SessionEvents(s.ID) {
		if e.Type == "store-translated" {
			cp := e
			ev = &cp
		}
	}
	if ev == nil {
		t.Fatal("no store-translated event journaled")
	}
	if !ev.Translated || ev.Source != hw.Name || ev.Distance != wantSeed {
		t.Fatalf("store-translated event = %+v, want source %q distance %d",
			ev, hw.Name, wantSeed)
	}

	snap := f.Snapshot()
	if snap.TranslatedSessions != 1 {
		t.Fatalf("snapshot translated sessions = %d", snap.TranslatedSessions)
	}
	if snap.Store.Translations != 1 {
		t.Fatalf("store translations = %d", snap.Store.Translations)
	}
	// A tuned translated session commits a native entry for its own
	// machine, so the next CascadeLake session warm-starts locally.
	if _, _, ok := st.Lookup(Key{Bench: "is", Machine: cl.Name}); !ok {
		t.Fatal("translated session committed no native entry")
	}
}

// TestRefundOnBuildFailure is the satellite bugfix's regression test: a
// warm-seeded session that dies before its search (here: the build step)
// must return the reuse charge, or transient failures would stale a good
// profile.
func TestRefundOnBuildFailure(t *testing.T) {
	st := NewStore(StoreConfig{MaxReuse: 1})
	k := Key{Bench: "nosuch", Machine: machine.CascadeLake().Name}
	st.Commit(k, Entry{Func: "f", Candidates: []int{1}, Distance: 10, TunedRate: 1})

	f := New(Config{Machine: machine.CascadeLake(), Workers: 1, Store: st})
	defer f.Close()
	s, err := f.Submit(SessionSpec{Bench: "nosuch", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Drain()
	if s.State() != Failed {
		t.Fatalf("session on an unbuildable bench = %v", s.State())
	}
	if c := st.Counters(); c.Refunds != 1 {
		t.Fatalf("counters = %+v, want one refund", c)
	}
	// The refund restored the single reuse charge the doomed warm start
	// consumed; without it this lookup would evict the entry as stale.
	if _, _, ok := st.Lookup(k); !ok {
		t.Fatal("reuse budget not refunded: entry went stale")
	}
}

// TestStoreDispositionInvariant: every optimize attempt journals exactly one
// store disposition — hit, miss, translated, or bypass — even through
// retries, fault injection, per-spec cold runs, and live re-tune passes.
func TestStoreDispositionInvariant(t *testing.T) {
	f := New(Config{
		Machine: machine.CascadeLake(), Workers: 4,
		Faults:     faults.New(faults.Config{Seed: 5, Rate: 0.2}),
		MaxRetries: 2,
	})
	defer f.Close()
	benches := []string{"is", "cg", "randacc"}
	specs := make([]SessionSpec, 24)
	for i := range specs {
		specs[i] = SessionSpec{Bench: benches[i%len(benches)], Seed: int64(i + 1), Cold: i%5 == 0}
	}
	if _, err := f.Run(specs); err != nil {
		t.Fatal(err)
	}
	checkDispositions(t, f, map[string]bool{"cold": true, "retry": true})

	// A watchdog-armed fleet's re-tune lane pass is a dispatch of its own:
	// one admission, one bypass with the lane's reason.
	wf := New(Config{Machine: machine.CascadeLake(), Workers: 1, WatchdogInterval: 1})
	defer wf.Close()
	if _, err := wf.Run([]SessionSpec{driftSpec()}); err != nil {
		t.Fatal(err)
	}
	checkDispositions(t, wf, map[string]bool{"cold": true, "retune": true})
	if snap := wf.Snapshot(); snap.StoreBypasses["retune"] == 0 {
		t.Fatalf("no re-tune pass ran: bypasses = %+v", snap.StoreBypasses)
	}
}

// checkDispositions asserts the per-attempt invariant on every session of a
// fleet: one admission, one store disposition, in that order, per attempt.
func checkDispositions(t *testing.T, f *Fleet, reasons map[string]bool) {
	t.Helper()
	disposition := map[string]bool{
		"store-hit": true, "store-miss": true,
		"store-translated": true, "store-bypass": true,
	}
	for _, s := range f.Sessions() {
		admitted, dispositions := 0, 0
		for _, e := range f.Journal().SessionEvents(s.ID) {
			switch {
			case e.Type == "admitted":
				admitted++
				if dispositions != admitted-1 {
					t.Fatalf("session %d re-admitted before attempt %d's disposition", s.ID, admitted-1)
				}
			case disposition[e.Type]:
				dispositions++
				if e.Type == "store-bypass" && !reasons[e.Reason] {
					t.Fatalf("session %d bypass reason %q not in %v", s.ID, e.Reason, reasons)
				}
			}
		}
		if admitted == 0 || dispositions != admitted {
			t.Fatalf("session %d: %d admissions but %d store dispositions",
				s.ID, admitted, dispositions)
		}
	}
}

// TestTranslateOffJournalIdentical: with Translate unset the journal is
// byte-identical run to run, and setting the flag on a fleet that never
// finds a sibling profile perturbs nothing — the default-off guarantee the
// experiments harness relies on.
func TestTranslateOffJournalIdentical(t *testing.T) {
	journal := func(translate bool) string {
		// Gated: the whole journal is compared, so every submit must be
		// journaled before the worker starts (see newGated).
		f, start := newGated(Config{Machine: machine.CascadeLake(), Workers: 1, Translate: translate})
		for _, spec := range []SessionSpec{
			{Bench: "is", Seed: 1}, {Bench: "cg", Seed: 2}, {Bench: "is", Seed: 3},
		} {
			if _, err := f.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		start()
		f.Drain()
		f.Close()
		evs := f.Journal().Events()
		var out []byte
		for i := range evs {
			evs[i].Wall = 0 // wall-clock stamps are the only nondeterminism
			b, err := json.Marshal(evs[i])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
			out = append(out, '\n')
		}
		return string(out)
	}
	off := journal(false)
	if again := journal(false); again != off {
		t.Errorf("Translate-off journal not reproducible:\n--- first ---\n%s\n--- second ---\n%s", off, again)
	}
	if on := journal(true); on != off {
		t.Errorf("Translate flag with no siblings changed the journal:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
}
