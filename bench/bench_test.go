package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 200 samples: exactly 10 lie beyond the 95th percentile.
	got, err := percentile(xs, 0.95)
	if err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, nil", got, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(xs[:110], 0.90); err != nil || got != 99 {
		t.Errorf("p90 of 1..110 = %v, %v; want 99, nil", got, err)
	}
	for _, q := range []float64{0, 1, -0.1} {
		if _, err := percentile(xs, q); err == nil {
			t.Errorf("percentile %v must be refused", q)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

func TestMedianGeomeanIQR(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{2, 8}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(xs); got != (8.25-2.75)/5.5 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "child", StartNS: 30, EndNS: 60}, // overlaps its sibling
	}
	got := selfTime(spans)
	if got["parent"] != 50 || got["child"] != 60 {
		t.Errorf("selfTime = %v, want parent 50 child 60", got)
	}
}

func TestGoroutineCap(t *testing.T) {
	if err := checkClients(runtime.NumCPU() + 1); err == nil {
		t.Error("more clients than CPUs must be refused")
	}
	if err := checkClients(0); err == nil {
		t.Error("zero clients must be refused")
	}
	if err := checkClients(defaultClients()); err != nil {
		t.Errorf("the default client count was refused: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "cost_ref", Better: "lower", Bound: 0.08}
	steady := []float64{10, 10.1, 9.9}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{10.3, 10.4, 10.2}, "ok"},
		{"worse than bound", lower, steady, []float64{11, 11.1, 10.9}, "regress"},
		{"better", lower, steady, []float64{5, 5.1, 4.9}, "ok"},
		{"noisy", lower, []float64{8, 10, 12}, []float64{9, 10.5, 12.5}, "unresolved"},
		{"noisy but every run better", lower, []float64{10, 12, 14}, []float64{5, 6, 7}, "ok"},
		{"higher is better", metricSpec{Name: "x", Better: "higher", Bound: 0.1}, steady, []float64{8, 8.1, 7.9}, "regress"},
		{"no bound", metricSpec{Name: "mem.read_same_ns", Better: "lower"}, steady, []float64{20, 20, 20}, "info"},
		{"exact equal", metricSpec{Name: "cpu.cycles"}, []float64{7, 7}, []float64{7, 7}, "ok"},
		{"exact moved", metricSpec{Name: "cpu.cycles"}, []float64{7, 7}, []float64{7, 8}, "regress"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, "interp-miss", c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The controller's counts are exact only where sessions are cold.
	if exactOn("rpg2.tuned_share", "service-durable") || !exactOn("rpg2.tuned_share", "fleet-cold") {
		t.Error("rpg2 counts must be exact on fleet-cold and not on service-durable")
	}
}

func TestCompareFilesExitsOnRegress(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "cost_ref", Unit: "ref/op", Better: "lower", Bound: 0.08}},
	}
	write := func(name string, v float64) string {
		path := filepath.Join(t.TempDir(), name)
		data, _ := json.Marshal(resultFile{Runs: 1, Values: map[string]map[string][]float64{"w": {"cost_ref": {v}}}})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := write("a.json", 10), write("b.json", 10.2), write("c.json", 12)
	var out bytes.Buffer
	if regressed, err := compareFiles(spec, a, same, &out); err != nil || regressed {
		t.Errorf("equal files: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if regressed, err := compareFiles(spec, a, worse, &out); err != nil || !regressed {
		t.Errorf("20%% worse: regressed=%v err=%v", regressed, err)
	}
}

// TestQuickContract is the -quick self-test: every workload the contract
// declares, both passes, at tiny sizes. It checks that each pass emits
// exactly the metrics BENCHMARK.json names for it, that names and units are
// well formed, that nothing fails, and that the exact ("=") metrics repeat
// across two runs.
func TestQuickContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exact metric %s is not declared in the contract", name)
		}
	}
	var hasSetup bool
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("the contract must declare setup_s in s, lower is better")
	}
	if len(spec.Workloads) != 4 {
		t.Errorf("contract declares %d workloads, want 4", len(spec.Workloads))
	}

	out := t.TempDir()
	pass := func(workload string, trace bool) result {
		t.Helper()
		cfg := config{workload: workload, seed: 1, trace: trace, quick: true, clients: defaultClients(), outDir: out}
		start := time.Now()
		_, res, err := execute(spec, cfg)
		t.Logf("%s trace=%v: %.2fs", workload, trace, time.Since(start).Seconds())
		if err != nil {
			t.Fatalf("%s trace=%v: %v", workload, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
		}
		return res
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q is malformed", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res := pass(w.Name, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v emitted %d metrics, contract names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v did not emit %s", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s %s: unit %q, contract says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", w.Name, err)
			}
			// One workload of each kind runs again: exact metrics must repeat.
			if w.Name != "interp-hit" && w.Name != "fleet-cold" {
				continue
			}
			again := pass(w.Name, true)
			for name := range exactMetrics {
				if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s: exact metric %s read %v then %v", w.Name, name, a, b)
				}
			}
		}
	}
}
