package experiments

import (
	"fmt"
	"io"

	"rpg2/internal/bolt"
	"rpg2/internal/cfg"
	"rpg2/internal/fleet"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/rpg2"
	"rpg2/internal/stats"
	"rpg2/internal/workloads"
)

// Table1Row reports one access-pattern exemplar processed by the
// InjectPrefetchPass.
type Table1Row struct {
	Pattern  string
	Program  string
	Category cfg.Category
	Sites    int
	KernelSz int
}

// Table1Result demonstrates the three supported access categories.
type Table1Result struct{ Rows []Table1Row }

// Table1 reproduces Table 1: one exemplar per supported category is run
// through the pass and the detected category is reported. The direct a[j]
// case uses a hand-built streaming program; the indirect cases use the
// bundled workloads whose kernels embody them.
func (r *Runner) Table1() (*Table1Result, error) {
	out := &Table1Result{}

	// Category 1: a[j] — a plain streaming loop.
	direct := isa.NewProgram("main")
	a := isa.NewAsm("main")
	a.InitDone().MovImm(8, 0).Label("loop").
		LoadIdx(9, 0, 8, 0). // a[j]
		Add(10, 10, 9).
		AddImm(8, 8, 1).
		Br(isa.LT, 8, 1, "loop").
		Halt()
	direct.Add(a)
	dbin, err := direct.Link()
	if err != nil {
		return nil, err
	}
	// The demand load is the instruction after InitDone + MovImm.
	rw, err := bolt.InjectPrefetch(dbin, "main", []int{2}, 16)
	if err != nil {
		return nil, fmt.Errorf("table1 direct: %w", err)
	}
	out.Rows = append(out.Rows, Table1Row{
		Pattern: "a[j] -> prefetch a[j+d]", Program: "stream",
		Category: rw.Sites[0].Category, Sites: len(rw.Sites), KernelSz: rw.Sites[0].KernelLen,
	})

	// Category 2: a[f(b[j])] — pr's rank[edge[e]].
	add := func(bench, input, pattern string) error {
		w, err := r.fleet.Builds().Build(bench, input, 1)
		if err != nil {
			return err
		}
		cand, err := r.cands.get(cellRef{bench, input, r.opts.Machines[0]})
		if err != nil {
			return err
		}
		rw, err := bolt.InjectPrefetch(w.Bin, workloads.KernelFunc, cand, 16)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, Table1Row{
			Pattern: pattern, Program: bench,
			Category: rw.Sites[0].Category, Sites: len(rw.Sites), KernelSz: rw.Sites[0].KernelLen,
		})
		return nil
	}
	if err := add("pr", r.inputsFor("pr")[0], "a[f(b[j])] -> prefetch a[f(b[j+d])]"); err != nil {
		return nil, fmt.Errorf("table1 indirect-inner: %w", err)
	}
	if err := add("bc", r.inputsFor("bc")[0], "a[f(b[i])+j] -> prefetch a[f(b[i+d])]"); err != nil {
		return nil, fmt.Errorf("table1 indirect-outer: %w", err)
	}
	return out, nil
}

// Render prints Table 1.
func (t *Table1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTable 1 — supported access categories (detected by InjectPrefetchPass)\n")
	fmt.Fprintf(w, "  %-38s %-8s %-26s %5s %6s\n", "pattern", "program", "category", "sites", "kernel")
	for _, row := range t.Rows {
		fmt.Fprintf(w, "  %-38s %-8s %-26s %5d %6d\n", row.Pattern, row.Program, row.Category, row.Sites, row.KernelSz)
	}
}

// Table2Row is one benchmark's operation latencies.
type Table2Row struct {
	Bench string
	Costs rpg2.OpCosts
}

// Table2Result is the operation-latency table.
type Table2Result struct {
	Machine string
	Rows    []Table2Row
}

// Table2 reproduces Table 2: the latency of RPG²'s key operations, averaged
// across inputs for each benchmark, on the first machine.
func (r *Runner) Table2() (*Table2Result, error) {
	m := r.opts.Machines[0]
	benches := []string{"pr", "sssp", "bfs", "bc", "is", "randacc", "cg"}
	out := &Table2Result{Machine: m.Name, Rows: make([]Table2Row, len(benches))}

	type cell struct{ bi int }
	var specs []fleet.SessionSpec
	var cells []cell
	for i, b := range benches {
		inputs := r.inputsFor(b)
		if len(inputs) > 4 {
			inputs = inputs[:4]
		}
		for k := range inputs {
			specs = append(specs, fleet.SessionSpec{
				Bench: b, Input: inputs[k], Machine: r.mptr(m),
				Seed: r.opts.Seed + int64(11*i+k),
				Cold: true, RunSeconds: -1,
			})
			cells = append(cells, cell{bi: i})
		}
	}
	sessions, err := r.runBatch(specs)
	if err != nil {
		return nil, err
	}
	aggs := make([]rpg2.OpCosts, len(benches))
	counts := make([]int, len(benches))
	for si, c := range cells {
		s := sessions[si]
		if s.State() == fleet.Failed || s.Report().Outcome == rpg2.NotActivated {
			continue
		}
		costs := s.Report().Costs
		aggs[c.bi].ExecSeconds += costs.ExecSeconds
		aggs[c.bi].BOLTSeconds += costs.BOLTSeconds
		aggs[c.bi].CodeInsertSeconds += costs.CodeInsertSeconds
		aggs[c.bi].PDEditSeconds += costs.PDEditSeconds
		aggs[c.bi].PDEdits += costs.PDEdits
		counts[c.bi]++
	}
	for i, b := range benches {
		agg := aggs[i]
		if n := counts[i]; n > 0 {
			agg.ExecSeconds /= float64(n)
			agg.BOLTSeconds /= float64(n)
			agg.CodeInsertSeconds /= float64(n)
			agg.PDEditSeconds /= float64(n)
			agg.PDEdits = agg.PDEdits / n
		}
		out.Rows[i] = Table2Row{Bench: b, Costs: agg}
	}
	return out, nil
}

// Render prints Table 2 in the paper's row layout.
func (t *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTable 2 — average latency of RPG2 operations (%s)\n", t.Machine)
	fmt.Fprintf(w, "  %-18s", "benchmark")
	for _, r := range t.Rows {
		fmt.Fprintf(w, " %8s", r.Bench)
	}
	fmt.Fprintln(w)
	row := func(label string, f func(rpg2.OpCosts) float64, format string) {
		fmt.Fprintf(w, "  %-18s", label)
		for _, r := range t.Rows {
			fmt.Fprintf(w, " "+format, f(r.Costs))
		}
		fmt.Fprintln(w)
	}
	row("RPG2 exec (s)", func(c rpg2.OpCosts) float64 { return c.ExecSeconds }, "%8.1f")
	row("BOLT (ms)", func(c rpg2.OpCosts) float64 { return 1000 * c.BOLTSeconds }, "%8.1f")
	row("code insert (ms)", func(c rpg2.OpCosts) float64 { return 1000 * c.CodeInsertSeconds }, "%8.1f")
	row("1x pd edit (ms)", func(c rpg2.OpCosts) float64 { return 1000 * c.PDEditSeconds }, "%8.1f")
	row("# pd edits", func(c rpg2.OpCosts) float64 { return float64(c.PDEdits) }, "%8.1f")
}

// Table3Result is the sensitivity-type classification per benchmark and
// machine.
type Table3Result struct {
	Benches []string
	// Counts[machine][class][benchIdx]
	Counts map[string]map[stats.CrossClass][]int
}

// Table3 reproduces Table 3: classify every (benchmark, input) distance
// curve on both machines into the eight sensitivity types.
func (r *Runner) Table3(benches []string) (*Table3Result, error) {
	if len(benches) == 0 {
		benches = []string{"pr", "sssp", "bfs", "bc"}
	}
	cl, _ := machine.ByName("cascadelake")
	hw, _ := machine.ByName("haswell")

	out := &Table3Result{Benches: benches, Counts: make(map[string]map[stats.CrossClass][]int)}
	for _, m := range []machine.Machine{cl, hw} {
		out.Counts[m.Name] = make(map[stats.CrossClass][]int)
		for _, c := range stats.AllCrossClasses() {
			out.Counts[m.Name][c] = make([]int, len(benches))
		}
	}

	type cell struct {
		bi    int
		input string
	}
	var cells []cell
	var refs []cellRef
	for bi, b := range benches {
		for _, in := range r.inputsFor(b) {
			cells = append(cells, cell{bi, in})
			refs = append(refs, cellRef{b, in, cl}, cellRef{b, in, hw})
		}
	}
	r.sweeps.fill(refs)
	for _, c := range cells {
		swCL, err := r.sweeps.get(cellRef{benches[c.bi], c.input, cl})
		if err != nil {
			continue
		}
		swHW, err := r.sweeps.get(cellRef{benches[c.bi], c.input, hw})
		if err != nil {
			continue
		}
		ccl := stats.Classify(swCL.Distances, swCL.Speedup)
		chw := stats.Classify(swHW.Distances, swHW.Speedup)
		out.Counts[cl.Name][stats.CrossClassify(ccl, chw, ccl)][c.bi]++
		out.Counts[hw.Name][stats.CrossClassify(ccl, chw, chw)][c.bi]++
	}
	return out, nil
}

// Render prints Table 3 in the paper's layout: one column group per
// machine, one column per benchmark.
func (t *Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTable 3 — prefetch distance sensitivity types (counts per benchmark)\n")
	fmt.Fprintf(w, "  %-16s", "type")
	for _, m := range []string{"cascadelake", "haswell"} {
		for _, b := range t.Benches {
			fmt.Fprintf(w, " %s:%-5s", m[:2], b)
		}
	}
	fmt.Fprintln(w)
	for _, c := range stats.AllCrossClasses() {
		fmt.Fprintf(w, "  %-16s", c)
		for _, m := range []string{"cascadelake", "haswell"} {
			for bi := range t.Benches {
				fmt.Fprintf(w, " %8d", t.Counts[m][c][bi])
			}
		}
		fmt.Fprintln(w)
	}
}
