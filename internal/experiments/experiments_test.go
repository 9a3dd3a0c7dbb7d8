package experiments_test

import (
	"strings"
	"testing"

	"rpg2/internal/experiments"
	"rpg2/internal/machine"
)

func TestFig7QuickPipeline(t *testing.T) {
	r := experiments.NewRunner(experiments.SmokeOptions())
	defer r.Close()
	res, err := r.Fig7([]string{"pr", "is"})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	for _, p := range res.Pairs {
		if p.Err != nil {
			t.Errorf("cell %s/%s/%s failed: %v", p.Bench, p.Input, p.Machine, p.Err)
			continue
		}
		if p.Speedup["rpg2"] <= 0 {
			t.Errorf("cell %s/%s/%s has no rpg2 speedup", p.Bench, p.Input, p.Machine)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	t.Log(sb.String())
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Fatal("render produced no output")
	}
	// The miss-heavy input should see a clear RPG² win on at least one
	// machine; the LLC-resident one should stay near 1.0 (never far below).
	for _, p := range res.Pairs {
		if p.Err != nil {
			continue
		}
		if p.Input == "as20000102-like" && p.Speedup["rpg2"] < 0.90 {
			t.Errorf("robustness violated: rpg2 %.2fx on LLC-resident input (%s)", p.Speedup["rpg2"], p.Machine)
		}
	}
	// Every cell flowed through the fleet: the journal saw each job kind
	// and the metrics snapshot accounts for them.
	snap := r.Snapshot()
	for _, kind := range []string{"optimize", "baseline", "static", "sweep", "profile", "apt-get"} {
		if snap.Kinds[kind] == 0 {
			t.Errorf("no %q sessions in fleet snapshot: %+v", kind, snap.Kinds)
		}
	}
	if len(r.Journal().Events()) == 0 {
		t.Error("fleet journal is empty after Fig7")
	}
	if snap.Failed > 0 {
		t.Errorf("%d fleet sessions failed", snap.Failed)
	}
}

func TestTable2Latencies(t *testing.T) {
	o := experiments.SmokeOptions()
	o.Machines = []machine.Machine{machine.CascadeLake()}
	r := experiments.NewRunner(o)
	defer r.Close()
	res, err := r.Table2()
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	var sb strings.Builder
	res.Render(&sb)
	t.Log(sb.String())
	for _, row := range res.Rows {
		if row.Costs.PDEdits == 0 {
			continue // not activated at this tiny scale
		}
		if ms := 1000 * row.Costs.PDEditSeconds; ms < 0.3 || ms > 5 {
			t.Errorf("%s: pd edit %.2f ms outside plausible range (paper: 1.1-1.4)", row.Bench, ms)
		}
		if ms := 1000 * row.Costs.CodeInsertSeconds; ms < 1 || ms > 20 {
			t.Errorf("%s: code insert %.2f ms outside plausible range (paper: 3-4)", row.Bench, ms)
		}
	}
}

func TestTable1Categories(t *testing.T) {
	r := experiments.NewRunner(experiments.SmokeOptions())
	defer r.Close()
	res, err := r.Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	var sb strings.Builder
	res.Render(&sb)
	t.Log(sb.String())
	want := []string{"direct a[j]", "indirect a[f(b[j])]", "indirect a[f(b[i]+j)]"}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 exemplars, got %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.Category.String() != want[i] {
			t.Errorf("exemplar %d classified %q, want %q", i, row.Category, want[i])
		}
	}
}

func TestFig13AsymmetricGrid(t *testing.T) {
	o := experiments.SmokeOptions()
	o.Machines = []machine.Machine{machine.CascadeLake()}
	r := experiments.NewRunner(o)
	defer r.Close()
	res, err := r.Fig13()
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	var sb strings.Builder
	res.Render(&sb)
	t.Log(sb.String())
	best := 0.0
	for _, row := range res.Speedup {
		for _, v := range row {
			if v > best {
				best = v
			}
		}
	}
	if best < 1.1 {
		t.Errorf("asymmetric grid shows no speedup anywhere (best %.2f)", best)
	}
}
