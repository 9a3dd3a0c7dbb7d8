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
	"strings"

	"rpg2"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (1,2,3,7,8,9,10,11,12,13)")
	table := flag.Int("table", 0, "regenerate one table (1,2,3)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	quick := flag.Bool("quick", false, "reduced scale: fewer inputs, shorter runs")
	smoke := flag.Bool("smoke", false, "smallest scale: two inputs, one trial (CI smoke)")
	trials := flag.Int("trials", 0, "override RPG² trials per input")
	parallel := flag.Int("parallel", 0, "fleet worker pool size (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "override the root seed (default per configuration)")
	warm := flag.Bool("warm", false, "let Figure 7's RPG² trials warm-start from the profile store")
	storeAddr := flag.String("store-addr", "", "share an rpg2-stored daemon's profile store at this base URL instead of an in-process store")
	translate := flag.Bool("translate", false, "run the cross-machine transplant study (cold vs warm vs translated seeding)")
	drift := flag.Bool("drift", false, "run the phase-drift study (no-watchdog baseline vs warm re-tune vs cold-re-tune ablation)")
	benches := flag.String("bench", "", "comma-separated benchmark subset for figures 7/8 and table 3")
	journal := flag.String("journal", "", "write the fleet event journal as JSON lines to this file (- for stdout)")
	metrics := flag.String("metrics", "", "write the fleet metrics snapshot as JSON to this file (- for stdout)")
	flag.Parse()

	opts := rpg2.DefaultExperiments()
	if *quick {
		opts = rpg2.QuickExperiments()
	}
	if *smoke {
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

	var benchList []string
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			if b = strings.TrimSpace(b); b != "" {
				benchList = append(benchList, b)
			}
		}
	}

	r := rpg2.NewExperiments(opts)
	defer r.Close()

	err := run(r, *fig, *table, *all, *translate, *drift, benchList)
	if err == nil {
		err = dump(r, *journal, *metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpg2-experiments:", err)
		os.Exit(1)
	}
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

func run(r *rpg2.Experiments, fig, table int, all, translate, drift bool, benches []string) error {
	out := os.Stdout
	did := false
	runTransplant := func() error {
		did = true
		res, err := r.TableTransplant(benches)
		if err != nil {
			return err
		}
		res.Render(out)
		return nil
	}
	runDrift := func() error {
		did = true
		// The drift study takes the drifting benchmark catalogue, not the
		// stock one; -bench only applies when it names drifting benches.
		var driftBenches []string
		known := make(map[string]bool)
		for _, b := range rpg2.DriftBenchmarks() {
			known[b] = true
		}
		for _, b := range benches {
			if known[b] {
				driftBenches = append(driftBenches, b)
			}
		}
		res, err := r.TableDrift(driftBenches)
		if err != nil {
			return err
		}
		res.Render(out)
		return nil
	}
	runFig := func(n int) error {
		did = true
		switch n {
		case 1:
			res, err := r.Fig1()
			if err != nil {
				return err
			}
			res.Render(out)
		case 2:
			res, err := r.Fig2()
			if err != nil {
				return err
			}
			res.Render(out)
		case 3:
			res, err := r.Fig3()
			if err != nil {
				return err
			}
			res.Render(out)
		case 7:
			res, err := r.Fig7(benches)
			if err != nil {
				return err
			}
			res.Render(out)
		case 8:
			res, err := r.Fig8(benches)
			if err != nil {
				return err
			}
			res.Render(out)
		case 9:
			res, err := r.Fig9()
			if err != nil {
				return err
			}
			res.Render(out)
		case 10:
			res, err := r.Fig10("", "")
			if err != nil {
				return err
			}
			res.Render(out)
		case 11:
			res, err := r.Fig11()
			if err != nil {
				return err
			}
			res.Render(out)
		case 12:
			res, err := r.Fig12()
			if err != nil {
				return err
			}
			res.Render(out)
		case 13:
			res, err := r.Fig13("")
			if err != nil {
				return err
			}
			res.Render(out)
		default:
			return fmt.Errorf("no figure %d (figures 4-6 are design diagrams, not results)", n)
		}
		return nil
	}
	runTable := func(n int) error {
		did = true
		switch n {
		case 1:
			res, err := r.Table1()
			if err != nil {
				return err
			}
			res.Render(out)
		case 2:
			res, err := r.Table2()
			if err != nil {
				return err
			}
			res.Render(out)
		case 3:
			res, err := r.Table3(benches)
			if err != nil {
				return err
			}
			res.Render(out)
		default:
			return fmt.Errorf("no table %d", n)
		}
		return nil
	}

	if all {
		for _, n := range []int{1, 2, 3} {
			if err := runTable(n); err != nil {
				return fmt.Errorf("table %d: %w", n, err)
			}
		}
		for _, n := range []int{1, 2, 3, 7, 8, 9, 10, 11, 12, 13} {
			if err := runFig(n); err != nil {
				return fmt.Errorf("figure %d: %w", n, err)
			}
		}
		if err := runTransplant(); err != nil {
			return err
		}
		return runDrift()
	}
	if fig != 0 {
		if err := runFig(fig); err != nil {
			return err
		}
	}
	if table != 0 {
		if err := runTable(table); err != nil {
			return err
		}
	}
	if translate {
		if err := runTransplant(); err != nil {
			return err
		}
	}
	if drift {
		if err := runDrift(); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -all, -fig N, or -table N")
	}
	return nil
}
