// Command rpg2-fleet runs RPG² as a fleet service: N optimization sessions
// drawn round-robin from the workload×input catalogue are pushed through a
// bounded worker pool sharing one profile store, and the fleet-wide metrics
// snapshot is printed at the end — sessions/sec, activation and rollback
// rates, store hit rate, p50/p95 session wall time, and the cold-vs-warm
// search cost.
//
// Usage:
//
//	rpg2-fleet -machine cascadelake -sessions 32 -workers 4
//	rpg2-fleet -bench pr,bfs -pairs 4 -sessions 24 -journal
//	rpg2-fleet -sessions 48 -faults 0.2 -retries 2 -breaker 2
//
// With -state-dir the fleet is crash-safe: every event is journaled to an
// append-only checksummed WAL whose epochs open with the profile store, so
// a killed run resumes with -resume — committed profiles survive and
// interrupted sessions re-run:
//
//	rpg2-fleet -state-dir ./state -fsync always -sessions 48
//	rpg2-fleet -state-dir ./state -resume
//
// A state dir that still holds an interrupted run is protected: starting
// fresh over it refuses with an error unless -fresh explicitly discards
// the unfinished work.
//
// SIGINT triggers a graceful shutdown: queued sessions are cancelled,
// in-flight sessions drain, the WAL is flushed and closed (so the state
// dir is resumable), and the snapshot (and journal, if requested) still
// prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"rpg2"
	"rpg2/cmd/internal/fleetflags"
)

// options carries the batch-only flags into run; the fleet-shaping ones
// (shared with rpg2-fleetd) live in fleetflags.
type options struct {
	fleet *fleetflags.Flags

	sessions int
	seed     int64
	benches  string
	pairs    int
	journal  bool
	metrics  string

	faults    float64
	faultSeed int64
}

func main() {
	o := bindOptions(flag.CommandLine)
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rpg2-fleet:", err)
		os.Exit(1)
	}
}

// bindOptions registers every rpg2-fleet flag on fs.
func bindOptions(fs *flag.FlagSet) *options {
	o := &options{fleet: fleetflags.Bind(fs)}
	fs.IntVar(&o.sessions, "sessions", 32, "number of optimization sessions to run")
	fs.Int64Var(&o.seed, "seed", 1, "root seed; session i uses seed+i")
	fs.StringVar(&o.benches, "bench", "all", "comma-separated benchmarks to draw from, or all")
	fs.IntVar(&o.pairs, "pairs", 8, "limit of distinct (benchmark, input) pairs (0 = no limit)")
	fs.BoolVar(&o.journal, "journal", false, "dump the event journal as JSON lines after the snapshot")
	fs.StringVar(&o.metrics, "metrics", "", "also write the metrics snapshot as JSON to this file (- for stdout)")
	fs.Float64Var(&o.faults, "faults", 0, "deterministic fault-injection rate per controller stage (0 = off)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault injector seed")
	return o
}

// catalogue builds the (benchmark, input) pairs the fleet draws from. The
// drifting benchmarks (bc-drift, is-drift, chase-drift) are opt-in by
// explicit name — "all" means the stock catalogue, byte-identical to
// before the watchdog existed.
func catalogue(benches string, limit int) ([]rpg2.SessionSpec, error) {
	want := make(map[string]bool)
	if benches == "all" || benches == "" {
		for _, b := range rpg2.Benchmarks() {
			want[b] = true
		}
	} else {
		known := make(map[string]bool)
		for _, b := range rpg2.Benchmarks() {
			known[b] = true
		}
		for _, b := range rpg2.DriftBenchmarks() {
			known[b] = true
		}
		for _, b := range strings.Split(benches, ",") {
			b = strings.TrimSpace(b)
			if !known[b] {
				return nil, fmt.Errorf("unknown benchmark %q (have %v plus drift %v)",
					b, rpg2.Benchmarks(), rpg2.DriftBenchmarks())
			}
			want[b] = true
		}
	}
	var specs []rpg2.SessionSpec
	for _, b := range rpg2.Benchmarks() {
		if !want[b] {
			continue
		}
		switch b {
		case "pr", "bfs", "sssp":
			for _, in := range rpg2.GraphInputs() {
				specs = append(specs, rpg2.SessionSpec{Bench: b, Input: in.Name})
			}
		case "bc":
			for _, in := range rpg2.SyntheticInputs() {
				specs = append(specs, rpg2.SessionSpec{Bench: b, Input: in.Name})
			}
		default: // AJ benchmarks carry a fixed input
			specs = append(specs, rpg2.SessionSpec{Bench: b})
		}
	}
	for _, b := range rpg2.DriftBenchmarks() {
		if want[b] {
			specs = append(specs, rpg2.SessionSpec{Bench: b})
		}
	}
	if limit > 0 && len(specs) > limit {
		specs = specs[:limit]
	}
	return specs, nil
}

// run executes one batch (or resume) and prints its report to stdout.
func run(o *options, stdout io.Writer) error {
	cfg, err := o.fleet.Resolve(o.faultSeed)
	if err != nil {
		return err
	}
	m := cfg.Machine
	pool, err := catalogue(o.benches, o.pairs)
	if err != nil {
		return err
	}
	if len(pool) == 0 {
		return fmt.Errorf("no (benchmark, input) pairs selected")
	}
	if o.faults > 0 {
		cfg.Faults = rpg2.NewFaultInjector(rpg2.FaultConfig{Seed: o.faultSeed, Rate: o.faults})
	}

	var f *rpg2.Fleet
	var rec *rpg2.FleetRecovery
	if o.fleet.Resume {
		f, rec, err = rpg2.RecoverFleet(cfg.StateDir, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rec.Summary())
	} else {
		f = rpg2.NewFleet(cfg)
	}
	defer f.Close()

	// SIGINT: cancel everything still queued, let in-flight sessions drain,
	// and fall through to the snapshot/journal printing below. The explicit
	// Close before the snapshot flushes the WAL, so an interrupted -state-dir
	// run is resumable.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if sig, ok := <-sigc; ok {
			n := f.CancelQueued()
			fmt.Fprintf(os.Stderr, "\nrpg2-fleet: %v: cancelled %d queued sessions, draining in-flight\n", sig, n)
			signal.Stop(sigc) // a second signal kills the process normally
		}
	}()

	if o.fleet.Resume {
		f.Drain()
	} else {
		specs := make([]rpg2.SessionSpec, o.sessions)
		for i := range specs {
			specs[i] = pool[i%len(pool)]
			specs[i].Seed = o.seed + int64(i)
		}
		fmt.Fprintf(stdout, "running %d sessions over %d (benchmark, input) pairs on %s\n\n",
			o.sessions, len(pool), m.Name)
		if _, err := f.Run(specs); err != nil {
			return err
		}
	}

	// Close before printing: workers stop, the final snapshot lands, and
	// the WAL is flushed and closed — whatever happens after this line, the
	// state dir is consistent.
	f.Close()
	snap := f.Snapshot()
	fmt.Fprint(stdout, snap.Render())
	if o.fleet.Resume {
		terminal := 0
		for _, s := range rec.Requeued {
			if s.State().Terminal() {
				terminal++
			}
		}
		fmt.Fprintf(stdout, "resume complete: %d recovered sessions terminal, %d store entries live\n",
			terminal, snap.StoreEntries)
		if terminal != len(rec.Requeued) {
			return fmt.Errorf("%d recovered sessions never finished", len(rec.Requeued)-terminal)
		}
	}
	for _, s := range f.Sessions() {
		if err := s.Err(); err != nil {
			fmt.Fprintf(stdout, "session %d (%s/%s) failed: %v\n", s.ID, s.Spec.Bench, s.Spec.Input, err)
		}
	}
	if o.journal {
		fmt.Fprintln(stdout)
		if err := f.Journal().WriteJSON(stdout); err != nil {
			return err
		}
	}
	if o.metrics != "" {
		out := stdout
		if o.metrics != "-" {
			file, err := os.Create(o.metrics)
			if err != nil {
				return err
			}
			defer file.Close()
			out = file
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return err
		}
	}
	return nil
}
