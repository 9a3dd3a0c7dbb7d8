// Command rpg2-stored serves a shared profile store over HTTP: the
// out-of-process backend several rpg2-fleet/rpg2-fleetd processes on one
// machine type point -store-addr at, so warm profiles committed by one
// fleet seed sessions in another. Generations live here, which is what
// lets cross-process commit races resolve exactly like in-process ones.
//
// Usage:
//
//	rpg2-stored -listen 127.0.0.1:8049
//	rpg2-stored -listen :8049 -state-dir ./store-state -fsync always
//	rpg2-stored -listen :8049 -state-dir ./store-state -fresh
//
// With -state-dir the store is crash-safe: mutations journal to one
// checksummed WAL, store-journal.wal, and every -snapshot-every mutations
// it rolls to a fresh epoch whose head is the whole store; a restart folds
// the ops after the head over it. A state dir an older binary left with a
// store-snapshot.wal is refused until -fresh (or move its entries over
// with GET /v1/store/export and POST /v1/store/import). A disk failure
// degrades persistence (the daemon keeps serving from memory, the stats
// endpoint reports it) instead of dropping requests.
//
// SIGINT/SIGTERM triggers a graceful drain: store requests get 503, a
// final epoch roll lands, the WAL closes, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"rpg2/internal/daemon"
	"rpg2/internal/stored"
	"rpg2/internal/wal"
)

func main() {
	var cfg stored.Config
	listen := flag.String("listen", "127.0.0.1:8049", "address to serve the store API on")
	flag.IntVar(&cfg.Store.MaxReuse, "max-reuse", 0, "serves per committed entry before it goes stale (0 = default 16)")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "persist the op journal here (empty = in-memory only)")
	flag.BoolVar(&cfg.Fresh, "fresh", false, "discard the state dir's prior contents instead of recovering them")
	fsync := flag.String("fsync", "interval", "WAL durability: interval, always, or never")
	flag.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "store commits between epoch rolls, each writing the whole store at the head of a fresh journal (0 = default 256)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving (for test harnesses using port 0)")
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", 0, "per-request context deadline (0 = default 30s)")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", 0, "max request body size in bytes, 413 past it (0 = default 1 MiB)")
	flag.Parse()

	if err := run(cfg, *listen, *fsync, *addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "rpg2-stored:", err)
		os.Exit(1)
	}
}

func run(cfg stored.Config, listen, fsync, addrFile string) error {
	var err error
	if cfg.Fsync, err = wal.ParseSyncMode(fsync); err != nil {
		return err
	}
	srv, err := stored.New(cfg)
	if err != nil {
		return err
	}
	if n := srv.Recovered(); n > 0 {
		fmt.Printf("rpg2-stored: recovered %d entries from %s\n", n, cfg.StateDir)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("rpg2-stored: serving on http://%s\n", ln.Addr())
	return daemon.Serve(ln, srv.HTTPServer(), addrFile, func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "rpg2-stored: %v: draining (final epoch roll, WAL close)\n", sig)
		st := srv.Drain()
		if msg, bad := srv.Degraded(); bad {
			fmt.Fprintf(os.Stderr, "rpg2-stored: persistence degraded: %s\n", msg)
		}
		fmt.Printf("rpg2-stored: drained: %d entries live, snapshotted %v\n", st.Entries, st.Snapshotted)
	})
}
