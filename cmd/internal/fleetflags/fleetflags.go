// Package fleetflags binds the flags that shape a fleet — machine, pool,
// store, admission, watchdog, persistence, disk chaos — once, for the two
// binaries that run one (rpg2-fleet in-process, rpg2-fleetd behind HTTP).
package fleetflags

import (
	"flag"
	"fmt"

	"rpg2/internal/faults"
	"rpg2/internal/fleet"
	"rpg2/internal/machine"
	"rpg2/internal/wal"
)

// Flags is the parsed fleet-shaping flag set. Most flags bind straight
// into Fleet's fields, so a binary can bind its own extra fleet flags there
// too; Resolve fills in what needs parsing or checking.
type Flags struct {
	Fleet  fleet.Config
	Resume bool

	machine string
	fsync   string
	disk    faults.DiskConfig
}

// Bind registers the shared flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c := &f.Fleet
	fs.StringVar(&f.machine, "machine", "cascadelake", "machine: cascadelake or haswell")
	fs.IntVar(&c.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.Float64Var(&c.RunSeconds, "seconds", 2, "simulated post-optimization run budget per session")
	fs.BoolVar(&c.Translate, "translate", false, "on a store miss, seed from a sibling machine's profile with a latency-scaled distance")
	fs.StringVar(&c.StoreAddr, "store-addr", "", "share an rpg2-stored daemon's profile store at this base URL (e.g. http://127.0.0.1:8049) instead of an in-process store")
	fs.IntVar(&c.MaxRetries, "retries", 0, "retry budget for failed/rolled-back sessions (0 = no retry lane)")
	fs.IntVar(&c.BreakerThreshold, "breaker", 0, "consecutive rollbacks that trip a pair's circuit breaker (0 = off)")
	fs.Float64Var(&c.WatchdogInterval, "watchdog-interval", 0, "sample tuned sessions every this many simulated seconds for phase drift (0 = watchdog off, byte-identical fleet)")
	fs.IntVar(&c.WatchdogHysteresis, "watchdog-hysteresis", 0, "consecutive degraded samples before the watchdog fires (0 = default 3)")
	fs.IntVar(&c.MaxRetunes, "max-retunes", 0, "re-tune lane budget per session (0 = default 1 when the watchdog is armed)")
	fs.StringVar(&c.StateDir, "state-dir", "", "persist the journal WAL here, the profile store and scheduler state at the head of each epoch (empty = in-memory only)")
	fs.BoolVar(&f.Resume, "resume", false, "recover the state dir's interrupted run instead of starting a fresh epoch")
	fs.BoolVar(&c.Overwrite, "fresh", false, "discard a state dir's interrupted run and start a fresh epoch (default: refuse)")
	fs.StringVar(&f.fsync, "fsync", "interval", "WAL durability: interval, always, or never")
	fs.Float64Var(&f.disk.WriteRate, "chaos-disk-write", 0, "probability a WAL write fails with an injected disk fault")
	fs.Float64Var(&f.disk.SyncRate, "chaos-disk-sync", 0, "probability a WAL fsync fails with an injected disk fault")
	fs.IntVar(&c.RearmBackoff, "rearm-backoff", 0, "journal events to wait before degraded persistence retries re-arming (0 = default 64)")
	return f
}

// Resolve validates the parsed flags and completes the fleet
// configuration. diskSeed seeds the disk-fault injector (each binary names
// its own seed flag). A state dir still holding an interrupted run is
// recoverable work, not scratch space: without -resume or -fresh it is
// refused here, before anything opens it — and so is one that cannot be
// read (with -resume, recovery itself reports that).
func (f *Flags) Resolve(diskSeed int64) (fleet.Config, error) {
	cfg := f.Fleet
	var ok bool
	if cfg.Machine, ok = machine.ByName(f.machine); !ok {
		return cfg, fmt.Errorf("unknown machine %q", f.machine)
	}
	var err error
	if cfg.Fsync, err = wal.ParseSyncMode(f.fsync); err != nil {
		return cfg, err
	}
	if f.Resume && cfg.StateDir == "" {
		return cfg, fmt.Errorf("-resume needs -state-dir")
	}
	if cfg.StateDir != "" && !f.Resume && !cfg.Overwrite {
		n, err := fleet.PendingSessions(cfg.StateDir)
		if err != nil {
			return cfg, err
		}
		if n > 0 {
			return cfg, fmt.Errorf("state dir %q holds an interrupted run (%d unfinished sessions); pass -resume to recover it or -fresh to discard it", cfg.StateDir, n)
		}
	}
	if f.disk.WriteRate > 0 || f.disk.SyncRate > 0 {
		f.disk.Seed = diskSeed
		cfg.DiskFaults = faults.NewDisk(f.disk)
	}
	return cfg, nil
}
