package drift

import "testing"

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Hysteresis != 3 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Explicit values survive.
	c = Config{Hysteresis: 5}.Defaults()
	if c.Hysteresis != 5 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}

func TestSteadyRateNeverFires(t *testing.T) {
	d := New(Config{}, 0.10)
	for i := 0; i < 1000; i++ {
		if d.Observe(0.10) {
			t.Fatalf("fired at steady reference rate, sample %d", i)
		}
	}
	if d.Export().Fired != 0 || d.Samples() != 1000 {
		t.Fatalf("fired=%d samples=%d", d.Export().Fired, d.Samples())
	}
}

func TestMildDegradationWithinThresholdNeverFires(t *testing.T) {
	// 20% below reference with a 25% threshold: degraded never arms.
	d := New(Config{}, 0.10)
	for i := 0; i < 1000; i++ {
		if d.Observe(0.08) {
			t.Fatalf("fired within threshold, sample %d", i)
		}
	}
}

func TestSustainedDegradationFires(t *testing.T) {
	d := New(Config{Hysteresis: 3}, 0.10)
	fired := -1
	for i := 0; i < 20; i++ {
		if d.Observe(0.02) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("sustained 80% degradation never fired")
	}
	// The EWMA crosses on the first sample (0.068 < 0.075); hysteresis then
	// holds the firing to the third consecutive degraded reading.
	if fired != 2 {
		t.Fatalf("fired too eagerly at sample %d: hysteresis should delay it", fired)
	}
}

func TestTransientDipResetsHysteresis(t *testing.T) {
	// Two deep dips, one rebound, repeated: each dip pulls the EWMA
	// (α 0.4) to at most 0.064, under the 0.075 trip level, and each
	// rebound lifts it back to at least 0.086 — so the consecutive count
	// keeps reaching 2 and must never reach 3.
	d := New(Config{Hysteresis: 3}, 0.10)
	for i := 0; i < 50; i++ {
		r := 0.01
		if i%3 == 2 {
			r = 0.16
		}
		if d.Observe(r) {
			t.Fatalf("fired across transient dips at sample %d", i)
		}
		if dip := i%3 != 2; dip != (d.degraded > 0) {
			t.Fatalf("sample %d (rate %v): degraded count %d", i, r, d.degraded)
		}
	}
}

func TestRebaseStopsRefire(t *testing.T) {
	d := New(Config{Hysteresis: 2}, 0.10)
	fired := false
	for i := 0; i < 10 && !fired; i++ {
		fired = d.Observe(0.05)
	}
	if !fired {
		t.Fatal("never fired")
	}
	// The new phase's honest ceiling is 0.05: after a rebase, holding
	// that rate is healthy.
	d.Rebase(0.05)
	for i := 0; i < 100; i++ {
		if d.Observe(0.05) {
			t.Fatalf("re-fired after rebase at sample %d", i)
		}
	}
}

func TestFiringResetsConsecutiveCount(t *testing.T) {
	d := New(Config{Hysteresis: 3}, 0.10)
	count := 0
	for i := 0; i < 9; i++ {
		if d.Observe(0.01) {
			count++
		}
	}
	// 9 degraded samples with hysteresis 3: fires at samples 3, 6, 9 —
	// not on every sample past the third.
	if count != 3 {
		t.Fatalf("fired %d times over 9 degraded samples, want 3", count)
	}
}

func TestExportResumeRoundTrip(t *testing.T) {
	cfg := Config{Hysteresis: 4}
	a := New(cfg, 0.10)
	for i := 0; i < 3; i++ {
		a.Observe(0.03)
	}
	b := Resume(cfg, a.Export())
	// Drive both detectors identically: every subsequent decision must
	// match, including the firing sample.
	for i := 0; i < 10; i++ {
		fa, fb := a.Observe(0.03), b.Observe(0.03)
		if fa != fb {
			t.Fatalf("resumed detector diverged at sample %d: %v vs %v", i, fa, fb)
		}
	}
	if a.Export() != b.Export() {
		t.Fatalf("posture diverged: %+v vs %+v", a.Export(), b.Export())
	}
}
