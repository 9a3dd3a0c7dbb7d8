package workloads_test

import (
	"testing"

	"rpg2/internal/cfg"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/workloads"
)

// These tests are the empirical contract of the drifting workloads: the
// phase switch must produce exactly the signal the fleet's watchdog is
// specified against. bc-drift degrades hard and is repaired by a pure
// distance re-tune; is-drift shifts phase without degrading; chase-drift
// never activates at all.

// driftSession optimizes a drift workload at a pinned seed distance and
// returns the live session and report.
func driftSession(t *testing.T, bench string, cfg rpgcore.Config) (*rpgcore.Session, *rpgcore.Report) {
	t.Helper()
	w, err := workloads.Build(bench, "", 1<<30)
	if err != nil {
		t.Fatalf("build %s: %v", bench, err)
	}
	sess, err := rpgcore.NewSession(machine.CascadeLake(), w)
	if err != nil {
		t.Fatalf("launch %s: %v", bench, err)
	}
	rep, err := sess.Optimize(cfg)
	if err != nil {
		t.Fatalf("optimize %s: %v", bench, err)
	}
	return sess, rep
}

// meanRate averages n deterministic sample windows.
func meanRate(s *rpgcore.Session, n int, window float64) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.SampleWindow(window).Rate
	}
	return sum / float64(n)
}

func TestBCDriftDegradesAndRetuneRecovers(t *testing.T) {
	sess, rep := driftSession(t, "bc-drift", rpgcore.Config{Seed: 1, SeedDistance: 2})
	if rep.Outcome != rpgcore.Tuned {
		t.Fatalf("outcome = %v, want Tuned", rep.Outcome)
	}
	if len(rep.Sites) != 1 || rep.Sites[0].Category != cfg.IndirectOuter {
		t.Fatalf("sites = %+v, want one IndirectOuter", rep.Sites)
	}
	if !rep.CanRetune() {
		t.Fatal("tuned report is not retunable")
	}
	t.Logf("activated at d=%d after %.1fs (explored %v)", rep.FinalDistance, sess.Elapsed(), rep.Explored)

	// Phase A steady state at the activation distance.
	rateA := meanRate(sess, 3, 0.2)
	if rateA <= 0 {
		t.Fatalf("phase-A rate = %v", rateA)
	}

	// Drive across the graph mutation: the rate must collapse well past
	// the watchdog's default 25% threshold and stay down.
	drifted := 0.0
	for i := 0; i < 60; i++ {
		sess.Advance(0.3)
		r := sess.SampleWindow(0.2).Rate
		if r < 0.5*rateA {
			drifted = meanRate(sess, 3, 0.2)
			break
		}
	}
	if drifted == 0 {
		t.Fatalf("rate never dropped below 50%% of phase-A rate %.4f within 30s", rateA)
	}
	t.Logf("phase A %.4f -> drifted %.4f (%.0f%% drop) at %.1fs",
		rateA, drifted, 100*(1-drifted/rateA), sess.Elapsed())

	// A warm re-tune seeded from the stale distance must recover most of
	// the loss without re-profiling.
	re, err := sess.Retune(rpgcore.Config{Seed: 2, SeedDistance: rep.FinalDistance}, rep)
	if err != nil {
		t.Fatalf("retune: %v", err)
	}
	if re.Outcome != rpgcore.Tuned {
		t.Fatalf("retune outcome = %v, want Tuned", re.Outcome)
	}
	t.Logf("retune explored %v", re.Explored)
	if re.FinalDistance <= rep.FinalDistance {
		t.Fatalf("retune distance = %d, want > stale %d (phase B needs a longer lead)",
			re.FinalDistance, rep.FinalDistance)
	}
	recovered := meanRate(sess, 3, 0.2)
	t.Logf("retuned to d=%d: rate %.4f (%d probes)", re.FinalDistance, recovered, re.Costs.PDEdits)
	// The recovery ceiling is the phase-B plateau (kernel overhead plus
	// the L3-resident rows prefetching cannot touch), about 1.5x the
	// drifted rate; demand at least 1.4x.
	if recovered < 1.4*drifted {
		t.Fatalf("recovered rate %.4f < 1.4x drifted %.4f: re-tune did not repair the drift",
			recovered, drifted)
	}
	if !re.CanRetune() {
		t.Fatal("retuned report lost the live insertion handle")
	}
}

func TestISDriftGrowthDoesNotDegrade(t *testing.T) {
	sess, rep := driftSession(t, "is-drift", rpgcore.Config{Seed: 1, SeedDistance: 16})
	if rep.Outcome != rpgcore.Tuned {
		t.Fatalf("outcome = %v, want Tuned", rep.Outcome)
	}
	rateA := meanRate(sess, 3, 0.2)

	// Cross the working-set growth, then compare steady states: the
	// tuned distance already covers the grown set, so the miss-site
	// retirement rate must not fall past the watchdog threshold.
	sess.Advance(12.0)
	rateB := meanRate(sess, 3, 0.2)
	t.Logf("phase A %.4f -> phase B %.4f at %.1fs", rateA, rateB, sess.Elapsed())
	if rateB < 0.75*rateA {
		t.Fatalf("benign growth degraded the rate %.4f -> %.4f: the watchdog would false-fire",
			rateA, rateB)
	}
}

func TestChaseDriftNeverActivates(t *testing.T) {
	_, rep := driftSession(t, "chase-drift", rpgcore.Config{Seed: 1})
	if rep.Outcome != rpgcore.NotActivated {
		t.Fatalf("outcome = %v, want NotActivated (self-dependent chain)", rep.Outcome)
	}
	if rep.CanRetune() {
		t.Fatal("unactivated report claims to be retunable")
	}
}

func TestDriftNamesAreBuildableAndSeparate(t *testing.T) {
	for _, name := range workloads.DriftNames() {
		if _, err := workloads.Build(name, "", 4); err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		for _, stock := range workloads.AllNames() {
			if stock == name {
				t.Fatalf("%s leaked into AllNames: stock sweeps would change", name)
			}
		}
	}
}
