// Command rpg2-fleetctl talks to a running rpg2-fleetd over its HTTP API.
//
// Subcommands:
//
//	rpg2-fleetctl -addr http://127.0.0.1:8047 submit -bench is -seed 7
//	rpg2-fleetctl status 3
//	rpg2-fleetctl wait 3
//	rpg2-fleetctl result 3
//	rpg2-fleetctl metrics
//	rpg2-fleetctl events -since 0
//	rpg2-fleetctl drift -since 0
//	rpg2-fleetctl batch -bench is,cg,mg -tenant alice -count 2
//	rpg2-fleetctl health
//
// batch submits count sessions per benchmark under one tenant, waits for
// every accepted session, and prints one grep-able summary line per
// category (accepted/rejected/terminal states) — the shape the CI smoke
// job asserts on. A 429 rejection is reported, not retried, so the
// backpressure behaviour stays visible.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetclient"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8047", "base URL of the rpg2-fleetd daemon")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline for the subcommand")
	overloadRetries := flag.Int("overload-retries", 0, "absorb 429s by waiting out Retry-After (with deterministic jitter) this many times before giving up")
	jitterSeed := flag.Int64("jitter-seed", 0, "seed for the client's deterministic retry jitter (0 = default)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "rpg2-fleetctl: need a subcommand: submit | status | wait | result | metrics | events | drift | batch | health")
		os.Exit(2)
	}

	cli := fleetclient.New(fleetclient.Config{
		BaseURL:         *addr,
		OverloadRetries: *overloadRetries,
		Seed:            *jitterSeed,
	})
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		err = runSubmit(ctx, cli, rest)
	case "status":
		err = runStatus(ctx, cli, rest)
	case "wait":
		err = runWait(ctx, cli, rest)
	case "result":
		err = runResult(ctx, cli, rest)
	case "metrics":
		err = runMetrics(ctx, cli)
	case "events":
		err = runEvents(ctx, cli, rest)
	case "drift":
		err = runDrift(ctx, cli, rest)
	case "batch":
		err = runBatch(ctx, cli, rest)
	case "health":
		err = runHealth(ctx, cli)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		exitErr(err)
	}
}

// exitErr maps error classes to distinct exit codes so scripts can branch
// without parsing messages: 3 = daemon backpressure (come back after the
// printed Retry-After), 4 = unknown session, 1 = everything else.
func exitErr(err error) {
	var over *fleetclient.Overloaded
	switch {
	case errors.As(err, &over):
		fmt.Fprintf(os.Stderr, "rpg2-fleetctl: daemon overloaded, retry after %s: %v\n", over.RetryAfter, err)
		os.Exit(3)
	case errors.Is(err, fleetclient.ErrNotFound):
		fmt.Fprintln(os.Stderr, "rpg2-fleetctl: not found:", err)
		os.Exit(4)
	default:
		fmt.Fprintln(os.Stderr, "rpg2-fleetctl:", err)
		os.Exit(1)
	}
}

func runSubmit(ctx context.Context, cli *fleetclient.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name (required)")
	input := fs.String("input", "", "graph/synthetic input (empty for AJ benchmarks)")
	tenant := fs.String("tenant", "", "tenant the session is accounted to")
	seed := fs.Int64("seed", 0, "deterministic seed")
	cold := fs.Bool("cold", false, "skip the profile store for this session")
	seconds := fs.Float64("seconds", 0, "simulated run budget override (0 = daemon default)")
	wait := fs.Bool("wait", false, "block until the session is terminal and print its outcome")
	fs.Parse(args)
	if *bench == "" {
		return errors.New("submit: -bench is required")
	}
	spec := fleet.SpecRecord{
		Bench: *bench, Input: *input, Tenant: *tenant, Seed: *seed,
		Cold: *cold, RunSeconds: *seconds,
	}
	id, err := cli.Submit(ctx, spec)
	if err != nil {
		var over *fleetclient.Overloaded
		if errors.As(err, &over) {
			fmt.Printf("rejected retry-after=%s\n", over.RetryAfter)
			os.Exit(3)
		}
		return err
	}
	fmt.Printf("submitted id=%d\n", id)
	if *wait {
		out, err := cli.Wait(ctx, id)
		if err != nil {
			return err
		}
		return printJSON(out)
	}
	return nil
}

func parseID(args []string) (int, error) {
	if len(args) != 1 {
		return 0, errors.New("need exactly one session ID")
	}
	return strconv.Atoi(args[0])
}

func runStatus(ctx context.Context, cli *fleetclient.Client, args []string) error {
	id, err := parseID(args)
	if err != nil {
		return err
	}
	st, err := cli.Status(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func runWait(ctx context.Context, cli *fleetclient.Client, args []string) error {
	id, err := parseID(args)
	if err != nil {
		return err
	}
	out, err := cli.Wait(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(out)
}

func runResult(ctx context.Context, cli *fleetclient.Client, args []string) error {
	id, err := parseID(args)
	if err != nil {
		return err
	}
	out, ready, err := cli.Result(ctx, id)
	if err != nil {
		return err
	}
	if !ready {
		return fmt.Errorf("session %d is not terminal yet (use wait)", id)
	}
	return printJSON(out)
}

func runMetrics(ctx context.Context, cli *fleetclient.Client) error {
	snap, err := cli.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(snap.Render())
	return nil
}

func runEvents(ctx context.Context, cli *fleetclient.Client, args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	since := fs.Int("since", -1, "replay events with sequence > since before following (-1 = everything)")
	fs.Parse(args)
	enc := json.NewEncoder(os.Stdout)
	return cli.Stream(ctx, *since, func(e fleet.Event) error {
		return enc.Encode(e)
	})
}

// runDrift follows the event stream but keeps only the phase-drift
// watchdog lane — drift-detected, retune-scheduled, retune-complete — as
// one grep-able line each, so an operator can watch re-tunes fire without
// wading through the full journal.
func runDrift(ctx context.Context, cli *fleetclient.Client, args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	since := fs.Int("since", -1, "replay events with sequence > since before following (-1 = everything)")
	fs.Parse(args)
	return cli.Stream(ctx, *since, func(e fleet.Event) error {
		switch e.Type {
		case "drift-detected":
			fmt.Printf("drift-detected session=%d bench=%s/%s retune=%d rate=%.4f ref=%.4f windows=%d\n",
				e.Session, e.Bench, e.Input, e.Retune, e.Rate, e.Ref, e.Windows)
		case "retune-scheduled":
			fmt.Printf("retune-scheduled session=%d bench=%s/%s retune=%d seed-distance=%d due=%.2f\n",
				e.Session, e.Bench, e.Input, e.Retune, e.Distance, e.Due)
		case "retune-complete":
			fmt.Printf("retune-complete session=%d bench=%s/%s retune=%d distance=%d rate=%.4f\n",
				e.Session, e.Bench, e.Input, e.Retune, e.Distance, e.Rate)
		}
		return nil
	})
}

func runBatch(ctx context.Context, cli *fleetclient.Client, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	benches := fs.String("bench", "is,cg,mg", "comma-separated benchmark names")
	tenant := fs.String("tenant", "", "tenant all sessions are accounted to")
	count := fs.Int("count", 1, "sessions per benchmark")
	seed := fs.Int64("seed", 1, "base seed (incremented per session)")
	nowait := fs.Bool("nowait", false, "submit only; don't wait for terminal states")
	fs.Parse(args)

	var accepted []int
	rejected := 0
	s := *seed
	for _, b := range strings.Split(*benches, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		for i := 0; i < *count; i++ {
			id, err := cli.Submit(ctx, fleet.SpecRecord{Bench: b, Tenant: *tenant, Seed: s})
			s++
			var over *fleetclient.Overloaded
			switch {
			case err == nil:
				accepted = append(accepted, id)
			case errors.As(err, &over):
				rejected++
				fmt.Printf("batch rejected tenant=%s bench=%s retry-after=%s\n", *tenant, b, over.RetryAfter)
			default:
				return err
			}
		}
	}
	fmt.Printf("batch submitted tenant=%s accepted=%d rejected=%d\n", *tenant, len(accepted), rejected)
	if *nowait {
		return nil
	}

	states := map[string]int{}
	for _, id := range accepted {
		out, err := cli.Wait(ctx, id)
		if err != nil {
			return fmt.Errorf("wait %d: %w", id, err)
		}
		states[out.State]++
	}
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("batch terminal tenant=%s state=%s count=%d\n", *tenant, k, states[k])
	}
	fmt.Printf("batch done tenant=%s terminal=%d\n", *tenant, len(accepted))
	return nil
}

func runHealth(ctx context.Context, cli *fleetclient.Client) error {
	st, err := cli.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Println(st)
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
