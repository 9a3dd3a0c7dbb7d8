package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// exactMetrics are simulated or exact counts: they must repeat bit for bit,
// across runs and across any commit that only makes the program faster.
// (README.md marks them "=".)
var exactMetrics = map[string]bool{
	"cache.demand_accesses": true, "cache.l1_hits": true, "cache.l2_hits": true, "cache.l3_hits": true,
	"cache.mshr_hits": true, "cache.llc_misses": true, "cache.dram_fills": true, "cache.hw_prefetches": true,
	"cpu.instructions": true, "cpu.cycles": true, "bolt.f1_instrs": true, "workloads.cache_hits": true,
	"rpg2.probes_per_session": true, "rpg2.tuned_share": true, "rpg2.rollback_share": true,
	"rpg2.not_activated_share": true, "rpg2.sim_seconds_per_session": true,
}

// exactOn reports whether a metric must repeat exactly on a workload. The
// controller counts do on fleet-cold, where a session depends only on its
// spec; on service-durable a warm session depends on what ran before it.
func exactOn(metric, workload string) bool {
	if !exactMetrics[metric] {
		return false
	}
	return !strings.HasPrefix(metric, "rpg2.") || workload != "service-durable"
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func allEqual(xs []float64, to float64) bool {
	for _, x := range xs {
		if x != to {
			return false
		}
	}
	return true
}

// verdict judges B against A for one (metric, workload).
//
//	exact metrics:   ok if every run of both sides reads the same, else regress.
//	bounded metrics: regress if B's median is worse than A's by more than the
//	                 bound; unresolved if either side's own interquartile
//	                 spread is wider than the bound (unless every run of B
//	                 beats every run of A); else ok.
//	other metrics:   info — they have no bound and explain, not gate.
func verdict(m metricSpec, workload string, a, b []float64) (rel float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		rel = (mb - ma) / ma
	}
	if exactOn(m.Name, workload) {
		if allEqual(a, ma) && allEqual(b, ma) {
			return rel, "ok"
		}
		return rel, "regress"
	}
	if m.Bound == 0 {
		return rel, "info"
	}
	worse := rel
	if m.Better == "higher" {
		worse = -rel
	}
	if worse > m.Bound {
		return rel, "regress"
	}
	if iqrShare(a) > m.Bound || iqrShare(b) > m.Bound {
		bBeatsA := true
		for _, x := range b {
			for _, y := range a {
				if (m.Better == "higher" && x <= y) || (m.Better != "higher" && x >= y) {
					bBeatsA = false
				}
			}
		}
		if !bBeatsA {
			return rel, "unresolved"
		}
	}
	return rel, "ok"
}

// compareFiles prints, per (metric, workload), both medians, the relative
// difference, the bound and a verdict, and reports whether anything
// regressed.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%d run(s), commit %.12s)\nB: %s (%d run(s), commit %.12s)\n\n", pathA, a.Runs, a.Env.Commit, pathB, b.Runs, b.Env.Commit)
	fmt.Fprintf(w, "%-40s %-16s %14s %14s %9s %7s  %s\n", "metric", "workload", "median A", "median B", "diff", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		if fa, fb := a.Failed[wl.Name], b.Failed[wl.Name]; fa != 0 || fb != 0 {
			fmt.Fprintf(w, "%-40s %-16s %14d %14d %9s %7s  %s\n", "failed", wl.Name, fa, fb, "", "0", "regress")
			regressed = true
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		for _, wl := range spec.Workloads {
			va, vb := a.Values[wl.Name][m.Name], b.Values[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-40s %-16s %14s %14s %9s %7s  %s\n", m.Name, wl.Name, "-", "-", "", "", "regress (missing)")
				regressed = true
				continue
			}
			rel, v := verdict(m, wl.Name, va, vb)
			counts[v]++
			bound := ""
			switch {
			case exactOn(m.Name, wl.Name):
				bound = "="
			case m.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "%-40s %-16s %14.6g %14.6g %+8.1f%% %7s  %s\n", m.Name, wl.Name, median(va), median(vb), 100*rel, bound, v)
			if v == "regress" {
				regressed = true
			}
		}
	}
	fmt.Fprintf(w, "\nok %d, regress %d, unresolved %d, info %d\n", counts["ok"], counts["regress"], counts["unresolved"], counts["info"])
	return regressed, nil
}
