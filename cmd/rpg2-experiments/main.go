// Command rpg2-experiments regenerates the tables and figures of the RPG²
// paper's evaluation section on the simulated machines. Every measured cell
// runs as a session of an internal fleet, so each run can also emit the
// fleet's event journal and metrics snapshot.
//
// Usage:
//
//	rpg2-experiments -all              # everything (takes a while)
//	rpg2-experiments -fig 7            # one figure
//	rpg2-experiments -table 3 -quick   # one table at reduced scale
//	rpg2-experiments -smoke -fig 7 -bench pr,is -journal run.ndjson -metrics -
//	rpg2-experiments -smoke -translate -bench pr   # cross-machine transplant study
//	rpg2-experiments -smoke -drift -bench bc-drift # phase-drift watchdog study
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"rpg2"
)

// request is what the flags ask for, before any of it is checked.
type request struct {
	fig, table                          int
	all, quick, smoke, translate, drift bool
	benches                             []string
}

func main() {
	var q request
	flag.IntVar(&q.fig, "fig", 0, "regenerate one figure (1,2,3,7,8,9,10,11,12,13)")
	flag.IntVar(&q.table, "table", 0, "regenerate one table (1,2,3)")
	flag.BoolVar(&q.all, "all", false, "regenerate every table and figure")
	flag.BoolVar(&q.quick, "quick", false, "reduced scale: fewer inputs, shorter runs")
	flag.BoolVar(&q.smoke, "smoke", false, "smallest scale: two inputs, one trial (CI smoke)")
	trials := flag.Int("trials", 0, "override RPG² trials per input")
	parallel := flag.Int("parallel", 0, "fleet worker pool size (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "override the root seed (default per configuration)")
	warm := flag.Bool("warm", false, "let Figure 7's RPG² trials warm-start from the profile store")
	storeAddr := flag.String("store-addr", "", "share an rpg2-stored daemon's profile store at this base URL instead of an in-process store")
	flag.BoolVar(&q.translate, "translate", false, "run the cross-machine transplant study (cold vs warm vs translated seeding)")
	flag.BoolVar(&q.drift, "drift", false, "run the phase-drift study (no-watchdog baseline vs warm re-tune vs cold-re-tune ablation)")
	benches := flag.String("bench", "", "comma-separated benchmark subset for figures 7/8 and table 3")
	journal := flag.String("journal", "", "write the fleet event journal as JSON lines to this file (- for stdout)")
	metrics := flag.String("metrics", "", "write the fleet metrics snapshot as JSON to this file (- for stdout)")
	flag.Parse()

	for _, b := range strings.Split(*benches, ",") {
		if b = strings.TrimSpace(b); b != "" {
			q.benches = append(q.benches, b)
		}
	}
	selected, err := selection(q)
	if err != nil {
		fatal(err)
	}

	opts := rpg2.DefaultExperiments()
	if q.quick {
		opts = rpg2.QuickExperiments()
	}
	if q.smoke {
		opts = rpg2.SmokeExperiments()
	}
	if *trials > 0 {
		opts.Trials = *trials
	}
	if *parallel > 0 {
		opts.Parallelism = *parallel
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.WarmStart = *warm
	opts.StoreAddr = *storeAddr

	r := rpg2.NewExperiments(opts)
	defer r.Close()

	for _, a := range selected {
		res, err := a.Run(r, q.benches)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.Name, err))
		}
		res.Render(os.Stdout)
	}
	if err := dump(r, *journal, *metrics); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpg2-experiments:", err)
	os.Exit(1)
}

// dump writes the fleet observability outputs requested by -journal and
// -metrics. A "-" destination means stdout.
func dump(r *rpg2.Experiments, journal, metrics string) error {
	to := func(dest string, write func(io.Writer) error) error {
		if dest == "-" {
			return write(os.Stdout)
		}
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if journal != "" {
		if err := to(journal, r.Journal().WriteJSON); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if metrics != "" {
		err := to(metrics, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(r.Snapshot())
		})
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// selection checks the request and resolves it to the artefacts to run, in
// the order they print: everything for -all, else the figure, the table, the
// transplant study, the drift study.
func selection(q request) ([]rpg2.Artefact, error) {
	if q.quick && q.smoke {
		return nil, fmt.Errorf("-quick and -smoke are two scales: pass one")
	}
	driftBenches := 0
	for _, b := range q.benches {
		switch {
		case slices.Contains(rpg2.DriftBenchmarks(), b):
			driftBenches++
		case !slices.Contains(rpg2.Benchmarks(), b):
			return nil, fmt.Errorf("unknown benchmark %q (have %v plus drift %v)",
				b, rpg2.Benchmarks(), rpg2.DriftBenchmarks())
		}
	}
	if q.drift && len(q.benches) > 0 && driftBenches == 0 {
		return nil, fmt.Errorf("-drift runs the drifting benchmarks: -bench %s names none of %v",
			strings.Join(q.benches, ","), rpg2.DriftBenchmarks())
	}

	catalogue := rpg2.Artefacts()
	if q.all {
		return catalogue, nil
	}
	var selected []rpg2.Artefact
	pick := func(want func(rpg2.Artefact) bool) bool {
		i := slices.IndexFunc(catalogue, want)
		if i >= 0 {
			selected = append(selected, catalogue[i])
		}
		return i >= 0
	}
	if q.fig != 0 && !pick(func(a rpg2.Artefact) bool { return a.Fig == q.fig }) {
		return nil, fmt.Errorf("no figure %d (figures 4-6 are design diagrams, not results)", q.fig)
	}
	if q.table != 0 && !pick(func(a rpg2.Artefact) bool { return a.Table == q.table }) {
		return nil, fmt.Errorf("no table %d", q.table)
	}
	if q.translate {
		pick(func(a rpg2.Artefact) bool { return a.Name == "transplant" })
	}
	if q.drift {
		pick(func(a rpg2.Artefact) bool { return a.Name == "drift" })
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("nothing to do: pass -all, -fig N, or -table N")
	}
	return selected, nil
}
