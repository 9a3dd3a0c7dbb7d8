package experiments_test

import (
	"strings"
	"testing"

	"rpg2/internal/experiments"
	"rpg2/internal/machine"
)

// renderFig7 runs Figure 7 on one runner and returns the rendered bytes.
func renderFig7(t *testing.T, r *experiments.Runner) string {
	t.Helper()
	res, err := r.Fig7([]string{"pr"})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	var sb strings.Builder
	res.Render(&sb)
	return sb.String()
}

// determinismOptions shrinks the smoke configuration further so the repeated
// Figure 7 renders stay affordable under the race detector.
func determinismOptions() experiments.Options {
	o := experiments.SmokeOptions()
	o.Machines = []machine.Machine{machine.CascadeLake()}
	o.RunSeconds = 6
	return o
}

// Figure 7's rendered output must be byte-identical regardless of how many
// fleet workers execute the cells, and regardless of whether the workload
// build cache is cold or warm — the refactor's central invariant.
func TestFig7DeterministicAcrossWorkersAndCache(t *testing.T) {
	opts := func(par int) experiments.Options {
		o := determinismOptions()
		o.Parallelism = par
		return o
	}

	serial := experiments.NewRunner(opts(1))
	defer serial.Close()
	want := renderFig7(t, serial)
	if !strings.Contains(want, "Figure 7") {
		t.Fatalf("render produced no output:\n%s", want)
	}

	parallel := experiments.NewRunner(opts(8))
	defer parallel.Close()
	if got := renderFig7(t, parallel); got != want {
		t.Errorf("Parallelism=8 render differs from Parallelism=1:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}

	// Warm-cache repeat on the same runner: the second run serves every
	// workload from the build cache (and every sweep/profile/apt-get from
	// the memo) yet renders the same bytes.
	cold := renderFig7(t, parallel)
	before := parallel.Snapshot()
	warm := renderFig7(t, parallel)
	if warm != cold {
		t.Errorf("warm-cache render differs from cold-cache render:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	after := parallel.Snapshot()
	if after.BuildConstructs != before.BuildConstructs {
		t.Errorf("warm repeat rebuilt graphs: %d constructs before, %d after",
			before.BuildConstructs, after.BuildConstructs)
	}
	if after.BuildHits <= before.BuildHits {
		t.Errorf("warm repeat recorded no build-cache hits: %d before, %d after",
			before.BuildHits, after.BuildHits)
	}
}

// The transplant study mixes all three seeding tiers (cold, warm, and
// cross-machine translated) plus static re-measurements across two
// machines; its rendered output must still be byte-identical regardless of
// how many fleet workers execute the cells.
func TestTransplantDeterministicAcrossWorkers(t *testing.T) {
	render := func(par int) string {
		o := experiments.SmokeOptions()
		o.Parallelism = par
		r := experiments.NewRunner(o)
		defer r.Close()
		res, err := r.TableTransplant([]string{"pr"})
		if err != nil {
			t.Fatalf("TableTransplant: %v", err)
		}
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	want := render(1)
	if !strings.Contains(want, "Transplant study") || !strings.Contains(want, "summary:") {
		t.Fatalf("render produced no study:\n%s", want)
	}
	// The study must actually exercise the translated tier, not silently
	// fall back to cold cells.
	if !strings.Contains(want, "->") {
		t.Fatalf("no cell carries a translated seed:\n%s", want)
	}
	if got := render(8); got != want {
		t.Errorf("Parallelism=8 render differs from Parallelism=1:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// With WarmStart the measured RPG² trials may seed from the frozen profile
// store; the pipeline must still complete and stay deterministic run to run.
func TestFig7WarmStartDeterministic(t *testing.T) {
	o := determinismOptions()
	o.Parallelism = 4
	o.WarmStart = true

	a := experiments.NewRunner(o)
	defer a.Close()
	first := renderFig7(t, a)
	if strings.Contains(first, "SKIPPED") {
		t.Fatalf("warm-start run skipped cells:\n%s", first)
	}
	b := experiments.NewRunner(o)
	defer b.Close()
	if second := renderFig7(t, b); second != first {
		t.Errorf("warm-start render not reproducible:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// The pre-warm round populated the store, so measured sessions hit it.
	if snap := a.Snapshot(); snap.Store.Hits == 0 {
		t.Errorf("warm-start run never hit the profile store: %+v", snap.Store)
	}
}
