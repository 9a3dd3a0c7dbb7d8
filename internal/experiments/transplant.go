// The transplant study: the ROADMAP's cross-machine profile-portability
// item, validated the way the paper validates Figure 3's transplant claim —
// by running the same workload natively tuned, cold, and seeded with the
// *other* machine's profile, on both machines. The translated arm reuses
// the sibling profile's candidate sites and scales its distance by the
// machines' effective memory-latency ratio (fleet.TranslateDistance); the
// study reports what that hypothesis costs (measurement windows and search
// probes) and where it lands (final distance and miss-site rate) relative
// to a native tune.

package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rpg2/internal/fleet"
	"rpg2/internal/machine"
	"rpg2/internal/rpg2"
)

// transplantTrials is the minimum number of per-cell trials: a cold
// search's cost depends heavily on the luck of its random starting
// distance, so each arm is averaged over several seeds before the costs
// are compared. The floor also sets the quality of the native reference
// (and therefore of the transplanted seed): the best of five random-start
// tunes reliably finds the sharp optimum that a single noisy search can
// miss.
const transplantTrials = 5

// TransplantArm aggregates one seeding tier's trials on one cell.
type TransplantArm struct {
	// Outcome is the first trial's controller outcome ("tuned", …) or
	// "failed"; Trials counts the trials that tuned.
	Outcome string
	Trials  int
	// Windows is the mean number of measurement windows a tuned trial
	// consumed (profiling + baseline + every distance probe) — the
	// session's total measured search cost. Probes is the distance-edit
	// subset of it; Rate is the mean best miss-site retirement rate.
	Windows float64
	Probes  float64
	Rate    float64
	// Distance is the arm's estimate of the optimal prefetch distance:
	// the argmax of the tuning metric pooled per distance across every
	// probe the arm's trials made (see armOf).
	Distance int
}

// TransplantRow is one (benchmark, input, machine) cell of the study.
type TransplantRow struct {
	Bench, Input string
	// Machine is the target the cell ran on; Source is the sibling machine
	// the translated arm's profile came from.
	Machine, Source string
	// SeedDistance is the latency-scaled distance the translated arm's
	// search started from.
	SeedDistance int
	// Cold ran full random-start searches; Warm was seeded from the
	// native store entry; Translated from the sibling machine's entry.
	// Each arm's Distance pools its trials' probes per distance and takes
	// the argmax — the arm's best estimate of the optimum under
	// measurement noise.
	Cold, Warm, Translated TransplantArm
	// Comparable marks cells where a sibling seed existed and both the
	// cold and translated arms tuned at least once.
	Comparable bool
	// NativeStaticRate and TranslatedStaticRate are noise-free static
	// re-measurements (fleet.StaticJob) of the two final distances on the
	// target machine — the true surface values the guard compares, free
	// of search-selection noise.
	NativeStaticRate, TranslatedStaticRate float64
	// SavesWindows: the translated arm's mean measurement-window count
	// undercuts the cold arm's (a translated session profiles for the
	// short warm window, so this is the tier's headline saving). Judged:
	// the native distance's static re-measurement produced a signal to
	// compare against (some tiny inputs retire no miss-site work, leaving
	// nothing to judge). WithinGuard: the translated distance's true
	// (static) rate is within the warm-accept noise guard (1 - 2·IPCNoise)
	// of the natively tuned distance's on the same machine.
	SavesWindows, Judged, WithinGuard bool
}

// TransplantResult is the full study across benchmarks and machines.
type TransplantResult struct {
	Machines []string
	Rows     []TransplantRow
}

// TableTransplant runs the cross-machine transplant study: every cell is
// tuned natively (the cold arm, averaged over several random-start seeds),
// re-run warm from its own store entry, and re-run on a fresh
// Translate-enabled fleet whose frozen store holds only the *sibling*
// machine's native entries, so the lookup misses and the translation tier
// seeds the search. Phases are drained batches of sessions whose store
// interactions are per-cell-independent (or frozen), so the rendered study
// is byte-identical regardless of Parallelism.
func (r *Runner) TableTransplant(benches []string) (*TransplantResult, error) {
	if len(benches) == 0 {
		benches = []string{"pr", "sssp", "bfs", "bc", "is", "randacc", "cg"}
	}
	ms := r.opts.Machines
	if len(ms) < 2 {
		ms = machine.Both()
	}
	trials := r.opts.Trials
	if trials < transplantTrials {
		trials = transplantTrials
	}

	type cell struct {
		bench, input string
		mi           int
	}
	var cells []cell
	for _, b := range benches {
		inputs := r.inputsFor(b)
		if len(inputs) > 4 {
			inputs = inputs[:4]
		}
		for _, in := range inputs {
			for mi := range ms {
				cells = append(cells, cell{b, in, mi})
			}
		}
	}
	seedOf := func(i, trial, arm int) int64 {
		return r.opts.Seed + int64(13*i) + int64(100003*trial) + int64(arm)
	}

	// Phase 1 runs the cold arm and commits the native entries on one
	// Translate-off fleet: each cell's first trial is a plain non-cold
	// session whose store key no other session touches — it misses, runs
	// the full search, and commits — and the remaining trials bypass the
	// store by spec (Cold), so the whole batch is scheduling-independent.
	natives := fleet.New(fleet.Config{
		Machine: ms[0], Workers: r.opts.Parallelism, RunSeconds: r.opts.RunSeconds,
	})
	defer natives.Close()
	var coldSpecs []fleet.SessionSpec
	for i, c := range cells {
		for k := 0; k < trials; k++ {
			coldSpecs = append(coldSpecs, fleet.SessionSpec{
				Bench: c.bench, Input: c.input, Machine: r.mptr(ms[c.mi]),
				Seed: seedOf(i, k, 1), Cold: k > 0, RunSeconds: -1,
			})
		}
	}
	coldArm, err := natives.Run(coldSpecs)
	if err != nil {
		return nil, err
	}
	// The sibling entries the translated arm seeds from are the *native*
	// tunes: export before the warm arm refreshes or invalidates them.
	// A single random-start search can stop at a noise-induced local
	// optimum far from the real one, and a transplant of a bad tune is
	// born bad — so each exported entry's distance is upgraded to the
	// cold arm's pooled estimate, the study's best guess at the natively
	// tuned distance (a long-lived fleet converges its entries the same
	// way, recommitting on every later tune).
	exported := natives.Store().Export()
	native := make(map[fleet.Key]TransplantArm, len(cells))
	for i, c := range cells {
		k := fleet.Key{Bench: c.bench, Input: c.input, Machine: ms[c.mi].Name}
		native[k] = armOf(coldArm[i*trials : (i+1)*trials])
	}
	for j, ke := range exported {
		if a, ok := native[ke.Key]; ok && a.Trials > 0 {
			exported[j].Entry.Distance = a.Distance
			exported[j].Entry.TunedRate = a.Rate
		}
	}

	// Phase 2: the warm arm, one store hit per cell on its own entry.
	warmSpecs := make([]fleet.SessionSpec, len(cells))
	for i, c := range cells {
		warmSpecs[i] = fleet.SessionSpec{
			Bench: c.bench, Input: c.input, Machine: r.mptr(ms[c.mi]),
			Seed: seedOf(i, 0, 2), RunSeconds: -1,
		}
	}
	warmArm, err := natives.Run(warmSpecs)
	if err != nil {
		return nil, err
	}

	// Phase 3: per target machine, a Translate-enabled fleet whose store
	// holds only the sibling machines' entries — every lookup misses and
	// falls to the translation tier. The store is frozen so concurrent
	// trials neither consume reuse budget nor observe each other's
	// commits: every trial sees the identical sibling entry.
	type transInfo struct {
		sessions []*fleet.Session
		source   string
		seedD    int
	}
	trans := make([]transInfo, len(cells))
	for mi, m := range ms {
		st := fleet.NewStore(fleet.StoreConfig{})
		var sibs []fleet.KeyedEntry
		for _, ke := range exported {
			if ke.Key.Machine != m.Name {
				sibs = append(sibs, ke)
			}
		}
		st.Import(sibs)
		st.Freeze()
		tf := fleet.New(fleet.Config{
			Machine: m, Workers: r.opts.Parallelism, RunSeconds: r.opts.RunSeconds,
			Store: st, Translate: true,
		})
		var tspecs []fleet.SessionSpec
		var idx []int
		for i, c := range cells {
			if c.mi != mi {
				continue
			}
			for k := 0; k < trials; k++ {
				tspecs = append(tspecs, fleet.SessionSpec{
					Bench: c.bench, Input: c.input,
					Seed: seedOf(i, k, 3), RunSeconds: -1,
				})
				idx = append(idx, i)
			}
		}
		got, err := tf.Run(tspecs)
		if err != nil {
			tf.Close()
			return nil, err
		}
		for j, s := range got {
			ti := &trans[idx[j]]
			ti.sessions = append(ti.sessions, s)
			if ti.source == "" {
				for _, e := range tf.Journal().SessionEvents(s.ID) {
					if e.Type == "store-translated" {
						ti.source, ti.seedD = e.Source, e.Distance
					}
				}
			}
		}
		tf.Close()
	}

	out := &TransplantResult{Rows: make([]TransplantRow, len(cells))}
	for _, m := range ms {
		out.Machines = append(out.Machines, m.Name)
	}
	entries := make(map[fleet.Key]fleet.Entry, len(exported))
	for _, ke := range exported {
		entries[ke.Key] = ke.Entry
	}
	for i, c := range cells {
		m := ms[c.mi]
		row := TransplantRow{
			Bench: c.bench, Input: c.input, Machine: m.Name,
			Source: trans[i].source, SeedDistance: trans[i].seedD,
			Cold:       native[fleet.Key{Bench: c.bench, Input: c.input, Machine: m.Name}],
			Warm:       armOf(warmArm[i : i+1]),
			Translated: armOf(trans[i].sessions),
		}
		// A cell is only comparable when the translated arm actually got a
		// sibling seed (a failed native tune leaves none) and both arms
		// searched to a tune.
		if row.Source != "" && row.Cold.Trials > 0 && row.Translated.Trials > 0 {
			row.Comparable = true
			row.SavesWindows = row.Translated.Windows < row.Cold.Windows
		}
		out.Rows[i] = row
	}

	// Phase 4: the guard verdict. The arms' best rates are maxima over
	// noisy probes, so the two final distances are re-measured
	// head-to-head by noise-free static sessions on the target machine;
	// the translated distance passes when its true rate is within the
	// warm-accept guard of the natively tuned distance's.
	var statSpecs []fleet.SessionSpec
	var statIdx []int
	for i := range out.Rows {
		row := &out.Rows[i]
		if !row.Comparable {
			continue
		}
		e, ok := entries[fleet.Key{Bench: row.Bench, Input: row.Input, Machine: row.Machine}]
		if !ok {
			continue
		}
		for j, d := range []int{row.Cold.Distance, row.Translated.Distance} {
			statSpecs = append(statSpecs, fleet.SessionSpec{
				Kind: fleet.StaticJob, Bench: row.Bench, Input: row.Input,
				Machine: r.mptr(ms[cells[i].mi]), Distance: d,
				Candidates: e.Candidates, Seed: seedOf(i, j, 4), RunSeconds: 2,
			})
			statIdx = append(statIdx, 2*i+j)
		}
	}
	statics, err := natives.Run(statSpecs)
	if err != nil {
		return nil, err
	}
	for j, s := range statics {
		row := &out.Rows[statIdx[j]/2]
		if meas := s.Measurement(); meas != nil {
			if statIdx[j]%2 == 0 {
				row.NativeStaticRate = meas.Rate
			} else {
				row.TranslatedStaticRate = meas.Rate
			}
		}
	}
	for i := range out.Rows {
		row := &out.Rows[i]
		if row.Comparable && row.NativeStaticRate > 0 {
			row.Judged = true
			guard := 1 - 2*ms[cells[i].mi].IPCNoise
			row.WithinGuard = row.TranslatedStaticRate >= guard*row.NativeStaticRate
		}
	}
	return out, nil
}

// armOf aggregates one arm's trial sessions. Distance is the argmax of
// the tuning metric pooled across every distance the arm's trials
// explored: picking the single best-rate trial would ride the noise
// maximum (a lucky +2σ window crowns a spurious distance), while pooled
// per-distance means average several windows and make the arm's estimate
// of its optimum stable. Distances probed only once are excluded when
// any distance was probed more than once — a one-window maximum is
// exactly the noise artifact pooling exists to damp.
func armOf(sessions []*fleet.Session) TransplantArm {
	a := TransplantArm{Outcome: "failed"}
	windows, probes, rate := 0, 0, 0.0
	sum := make(map[int]float64)
	n := make(map[int]int)
	for i, s := range sessions {
		if s == nil || s.State() == fleet.Failed || s.Report() == nil {
			continue
		}
		rep := s.Report()
		if i == 0 {
			a.Outcome = rep.Outcome.String()
		}
		if rep.Outcome != rpg2.Tuned {
			continue
		}
		a.Trials++
		for d, v := range rep.Explored {
			sum[d] += v
			n[d]++
		}
		for _, pt := range rep.Timeline {
			if pt.Phase == "profile" || pt.Phase == "tune" {
				windows++
			}
		}
		probes += rep.Costs.PDEdits
		rate += rep.BestRate
	}
	if a.Trials > 0 {
		ds := make([]int, 0, len(sum))
		corroborated := false
		for d := range sum {
			ds = append(ds, d)
			corroborated = corroborated || n[d] > 1
		}
		sort.Ints(ds)
		best := 0.0
		for _, d := range ds {
			if corroborated && n[d] < 2 {
				continue
			}
			if m := sum[d] / float64(n[d]); a.Distance == 0 || m > best {
				a.Distance, best = d, m
			}
		}
		a.Windows = float64(windows) / float64(a.Trials)
		a.Probes = float64(probes) / float64(a.Trials)
		a.Rate = rate / float64(a.Trials)
	}
	return a
}

// Render prints the study: per-cell detail, per-benchmark cost means, and
// a summary line the CI smoke greps for. "transplant OK" means that on
// every benchmark the translated arm tuned at a lower total measurement
// cost (windows: short warm profile + its probes) than a cold session's
// full profile + random-start search, converging within the warm-accept
// noise guard of the natively tuned rate. Distance-probe counts are
// reported alongside: a translated seed must re-earn its distance through
// the full cold-span gradient (no fast-path accept for a cross-machine
// hypothesis), so probe savings appear where the metric surface is
// distance-sensitive (the AJ kernels) and wash out where it is flat or
// noise-jagged (the graph benchmarks' small inputs).
func (t *TransplantResult) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTransplant study — cross-machine profile translation\n")
	fmt.Fprintf(w, "  cold = random-start search, full profile; warm = native store seed\n")
	fmt.Fprintf(w, "  (±2 fast path); translated = sibling machine's candidates, distance\n")
	fmt.Fprintf(w, "  scaled by the memory-latency ratio, searched with the cold ±5 span.\n")
	fmt.Fprintf(w, "  Each arm reports mean measurement windows (w: profiling + baseline +\n")
	fmt.Fprintf(w, "  probes), mean distance probes (p), and its best trial's distance.\n")
	fmt.Fprintf(w, "  \"true\" is the translated distance's noise-free static rate relative\n")
	fmt.Fprintf(w, "  to the native distance's (\"!\" = outside the warm-accept guard).\n\n")
	fmt.Fprintf(w, "  %-8s %-16s %-12s %-18s %16s %16s %16s %5s %6s\n",
		"bench", "input", "machine", "seed (src->d')", "cold", "warm", "transl", "Δd", "true")
	arm := func(a TransplantArm) string {
		if a.Trials == 0 {
			return a.Outcome
		}
		return fmt.Sprintf("%.1fw %.1fp d%d", a.Windows, a.Probes, a.Distance)
	}
	type agg struct {
		coldW, coldP, transW, transP float64
		cells, savesW                int
		judged, guard                int
	}
	perBench := make(map[string]*agg)
	var order []string
	for _, row := range t.Rows {
		seed := "-"
		if row.Source != "" {
			seed = fmt.Sprintf("%s->%d", row.Source, row.SeedDistance)
		}
		dd, rate := "-", "-"
		if row.Comparable {
			dd = fmt.Sprintf("%+d", row.Translated.Distance-row.Cold.Distance)
			if row.NativeStaticRate > 0 {
				rate = fmt.Sprintf("%.0f%%", 100*row.TranslatedStaticRate/row.NativeStaticRate)
				if !row.WithinGuard {
					rate += "!"
				}
			}
			a := perBench[row.Bench]
			if a == nil {
				a = &agg{}
				perBench[row.Bench] = a
				order = append(order, row.Bench)
			}
			a.cells++
			a.coldW += row.Cold.Windows
			a.coldP += row.Cold.Probes
			a.transW += row.Translated.Windows
			a.transP += row.Translated.Probes
			if row.SavesWindows {
				a.savesW++
			}
			if row.Judged {
				a.judged++
			}
			if row.WithinGuard {
				a.guard++
			}
		}
		fmt.Fprintf(w, "  %-8s %-16s %-12s %-18s %16s %16s %16s %5s %6s\n",
			row.Bench, row.Input, row.Machine, seed,
			arm(row.Cold), arm(row.Warm), arm(row.Translated), dd, rate)
	}
	fmt.Fprintf(w, "\n  per-benchmark mean search cost (comparable cells)\n")
	failed := len(order) == 0
	cells, savesW, judged, guarded := 0, 0, 0, 0
	var probeSavers, probePayers []string
	for _, b := range order {
		a := perBench[b]
		cw, tw := a.coldW/float64(a.cells), a.transW/float64(a.cells)
		cp, tp := a.coldP/float64(a.cells), a.transP/float64(a.cells)
		wv := "windows saved"
		if tw >= cw {
			wv = "NO WINDOW SAVINGS"
			failed = true
		}
		if a.guard < a.judged {
			failed = true
		}
		pv := "probes saved"
		if tp < cp {
			probeSavers = append(probeSavers, b)
		} else {
			pv = "probes paid"
			probePayers = append(probePayers, b)
		}
		fmt.Fprintf(w, "    %-8s cold %5.1fw %4.1fp   translated %5.1fw %4.1fp   %s (%d/%d cells), %s\n",
			b, cw, cp, tw, tp, wv, a.savesW, a.cells, pv)
		cells += a.cells
		savesW += a.savesW
		judged += a.judged
		guarded += a.guard
	}
	status := "transplant OK"
	if failed {
		status = "transplant FAIL"
	}
	fmt.Fprintf(w, "\n  summary: translated tuned with fewer measurement windows than cold in %d/%d comparable cells, rate within noise guard of the native tune in %d/%d judged",
		savesW, cells, guarded, judged)
	if len(probeSavers) > 0 {
		fmt.Fprintf(w, "; probe savings on %s", strings.Join(probeSavers, ", "))
	}
	if len(probePayers) > 0 {
		fmt.Fprintf(w, " (hypothesis re-validation costs probes on %s)", strings.Join(probePayers, ", "))
	}
	fmt.Fprintf(w, " — %s\n", status)
}
