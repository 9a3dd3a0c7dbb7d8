// Command rpg2-fleetd serves a fleet over HTTP: the long-lived daemon the
// client library (and rpg2-fleetctl) talk to. Sessions are submitted as
// JSON specs, polled by ID, and fetched as terminal outcomes; the profile
// store answers read-only lookups; the journal streams as NDJSON with a
// resumable sequence cursor; and the metrics snapshot is one GET away.
//
// Usage:
//
//	rpg2-fleetd -listen 127.0.0.1:8047 -machine cascadelake -workers 4
//	rpg2-fleetd -listen :8047 -state-dir ./state -fsync always
//	rpg2-fleetd -listen :8047 -state-dir ./state -resume
//	rpg2-fleetd -listen :8047 -tenant-queue 8 -max-queue 64
//
// Backpressure: -max-queue caps the total waiting sessions and
// -tenant-queue caps one tenant's share; a submission over either cap is
// rejected with HTTP 429 and a Retry-After header instead of growing the
// queue without bound.
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions get 503,
// queued sessions journal as cancelled, in-flight sessions finish, the
// WAL flushes, event streams end cleanly, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"rpg2/cmd/internal/fleetflags"
	"rpg2/internal/daemon"
	"rpg2/internal/faults"
	"rpg2/internal/fleetd"
)

func main() {
	fleet := fleetflags.Bind(flag.CommandLine)
	var cfg fleetd.Config
	var chaos faults.NetConfig
	listen := flag.String("listen", "127.0.0.1:8047", "address to serve the HTTP API on")
	flag.IntVar(&fleet.Fleet.MaxQueue, "max-queue", 0, "max waiting sessions before submissions get 429 (0 = unbounded)")
	flag.IntVar(&fleet.Fleet.MaxTenantQueue, "tenant-queue", 0, "max waiting sessions per tenant before its submissions get 429 (0 = unbounded)")
	flag.IntVar(&cfg.RetryAfterCap, "retry-after-cap", 30, "upper bound on the Retry-After header, in seconds")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving (for test harnesses using port 0)")
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", 0, "per-request context deadline for non-streaming handlers (0 = default 30s)")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", 0, "max submit body size in bytes, 413 past it (0 = default 1 MiB)")
	flag.Int64Var(&chaos.Seed, "chaos-seed", 1, "seed shared by the disk and network fault injectors")
	flag.Float64Var(&chaos.DelayRate, "chaos-net-delay", 0, "probability a request is delayed before dispatch")
	flag.Float64Var(&chaos.ErrorRate, "chaos-net-error", 0, "probability a request gets an injected 500")
	flag.Float64Var(&chaos.SeverRate, "chaos-net-sever", 0, "probability a response body is severed mid-stream")
	flag.Float64Var(&chaos.PanicRate, "chaos-net-panic", 0, "probability a handler panics (exercises panic recovery)")
	flag.Parse()

	if err := run(fleet, cfg, chaos, *listen, *addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "rpg2-fleetd:", err)
		os.Exit(1)
	}
}

func run(fleet *fleetflags.Flags, cfg fleetd.Config, chaos faults.NetConfig, listen, addrFile string) error {
	var err error
	if cfg.Fleet, err = fleet.Resolve(chaos.Seed); err != nil {
		return err
	}
	cfg.Resume = fleet.Resume
	if chaos.DelayRate > 0 || chaos.ErrorRate > 0 || chaos.SeverRate > 0 || chaos.PanicRate > 0 {
		cfg.NetFaults = faults.NewNet(chaos)
	}
	srv, err := fleetd.New(cfg)
	if err != nil {
		return err
	}
	if rec := srv.Recovery(); rec != nil {
		fmt.Println(rec.Summary())
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("rpg2-fleetd: serving on http://%s (machine %s)\n", ln.Addr(), cfg.Fleet.Machine.Name)
	return daemon.Serve(ln, srv.HTTPServer(), addrFile, func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "rpg2-fleetd: %v: draining (in-flight sessions finish, queued cancel)\n", sig)
		st := srv.Drain()
		snap := srv.Fleet().Snapshot()
		fmt.Printf("rpg2-fleetd: drained: %d queued cancelled, %d completed, %d failed\n",
			st.Cancelled, snap.Completed, snap.Failed)
	})
}
