package faults

import (
	"fmt"
	"math"
	"testing"
)

// stages lists the injection boundaries in controller phase order.
var stages = []Stage{StageProfile, StageRewrite, StageOSR}

func TestDecisionsAreDeterministic(t *testing.T) {
	a := New(Config{Seed: 42, Rate: 0.3})
	b := New(Config{Seed: 42, Rate: 0.3})
	injected := 0
	for seed := int64(0); seed < 200; seed++ {
		for attempt := 0; attempt < 3; attempt++ {
			for _, st := range stages {
				ea := a.Check(st, seed, attempt)
				eb := b.Check(st, seed, attempt)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("divergent decision at (%v, %d, %d)", st, seed, attempt)
				}
				if ea != nil {
					injected++
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("rate 0.3 over 1800 decisions injected nothing")
	}
}

func TestDecisionsVaryAcrossInputs(t *testing.T) {
	// The decision must actually depend on each argument: different seeds,
	// attempts, and stages should not all share one fate.
	i := New(Config{Seed: 7, Rate: 0.5})
	seen := map[bool]bool{}
	for seed := int64(0); seed < 32; seed++ {
		seen[i.Check(StageOSR, seed, 0) != nil] = true
	}
	if len(seen) != 2 {
		t.Fatal("varying the session seed never changed the decision")
	}
	seen = map[bool]bool{}
	for attempt := 0; attempt < 32; attempt++ {
		seen[i.Check(StageRewrite, 1, attempt) != nil] = true
	}
	if len(seen) != 2 {
		t.Fatal("varying the attempt never changed the decision")
	}
}

func TestRateExtremes(t *testing.T) {
	never := New(Config{Seed: 1, Rate: 0})
	always := New(Config{Seed: 1, Rate: 1})
	for seed := int64(0); seed < 50; seed++ {
		if err := never.Check(StageProfile, seed, 0); err != nil {
			t.Fatalf("rate 0 injected a fault: %v", err)
		}
		if err := always.Check(StageProfile, seed, 0); err == nil {
			t.Fatal("rate 1 let a stage pass")
		}
	}
}

func TestRateFrequency(t *testing.T) {
	// Over many independent decisions the empirical rate should sit near
	// the configured one (binomial: n=3000, p=0.2, sd≈0.0073).
	i := New(Config{Seed: 99, Rate: 0.2})
	n := 0
	for seed := int64(0); seed < 1000; seed++ {
		for _, st := range stages {
			if i.Check(st, seed, 0) != nil {
				n++
			}
		}
	}
	got := float64(n) / 3000
	if math.Abs(got-0.2) > 0.05 {
		t.Fatalf("empirical rate %.3f far from configured 0.2", got)
	}
}

// TestPerStageRateOverride: there is no per-stage override — the one Rate
// governs every stage.
func TestPerStageRateOverride(t *testing.T) {
	always, never := New(Config{Seed: 3, Rate: 1}), New(Config{Seed: 3, Rate: 0})
	for _, st := range stages {
		if always.Check(st, 1, 0) == nil {
			t.Fatalf("rate 1 let stage %s pass", st)
		}
		if err := never.Check(st, 1, 0); err != nil {
			t.Fatalf("rate 0 fired at stage %s: %v", st, err)
		}
	}
}

func TestInjectedErrorIdentity(t *testing.T) {
	i := New(Config{Seed: 1, Rate: 1})
	err := i.Check(StageRewrite, 5, 2)
	if err == nil {
		t.Fatal("no fault at rate 1")
	}
	if !Injected(err) {
		t.Fatal("Injected rejected a raw injected error")
	}
	wrapped := fmt.Errorf("rpg2: rewrite stage: %w", err)
	if !Injected(wrapped) {
		t.Fatal("Injected rejected a wrapped injected error")
	}
	if Injected(fmt.Errorf("organic failure")) {
		t.Fatal("Injected accepted an organic error")
	}
	var fe *Error
	if msg := err.Error(); msg == "" {
		t.Fatal("empty error message")
	} else if fe, _ = err.(*Error); fe.Stage != StageRewrite || fe.Seed != 5 || fe.Attempt != 2 {
		t.Fatalf("error fields: %+v", fe)
	}
}

func TestHookMatchesCheck(t *testing.T) {
	a := New(Config{Seed: 11, Rate: 0.4})
	b := New(Config{Seed: 11, Rate: 0.4})
	for seed := int64(0); seed < 100; seed++ {
		hook := a.Hook(seed, 1)
		for _, st := range stages {
			if (hook(string(st)) != nil) != (b.Check(st, seed, 1) != nil) {
				t.Fatalf("Hook and Check disagree at (%v, %d)", st, seed)
			}
		}
	}
}
