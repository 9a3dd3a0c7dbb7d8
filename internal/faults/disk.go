package faults

import (
	"fmt"
	"sync"
)

// Disk fault operations. These name the physical act that failed, matching
// the wal layer's hook points.
const (
	// DiskOpWrite fails the buffered write of one framed record.
	DiskOpWrite = "write"
	// DiskOpSync fails the fsync that would make prior writes durable.
	DiskOpSync = "sync"
)

// diskOpIndex gives each operation a stable hash discriminator, disjoint
// from the controller stageIndex values so a shared seed never correlates
// the two domains.
func diskOpIndex(op string) uint64 {
	switch op {
	case DiskOpWrite:
		return 11
	case DiskOpSync:
		return 12
	}
	return 10
}

// DiskError is an injected disk fault. Like Error it is a distinct type so
// the persistence layer can tell injected failures from organic ones when
// tests assert on the degradation arc.
type DiskError struct {
	Op      string // DiskOpWrite or DiskOpSync
	Key     string // which file family the injector was keyed on
	Ordinal int    // how many prior operations this key+op had seen
}

func (e *DiskError) Error() string {
	return fmt.Sprintf("faults: injected disk %s fault (key %q, op #%d)",
		e.Op, e.Key, e.Ordinal)
}

// DiskConfig tunes a DiskInjector.
type DiskConfig struct {
	// Seed drives every decision; two injectors with the same Seed and
	// rates make identical decisions for the same (key, op, ordinal).
	Seed int64
	// WriteRate is the probability that one framed-record write fails.
	WriteRate float64
	// SyncRate is the probability that one fsync fails.
	SyncRate float64
	// MaxFaults caps the total number of injected faults (0 = unlimited).
	// A cap of 1 scripts "exactly one transient disk error", which is how
	// the chaos suite proves the persistence re-arm recovers.
	MaxFaults int
	// TornTailBytes bounds the simulated-crash tail tear: a crash under
	// this injector truncates 1..TornTailBytes bytes off the journal tail,
	// with the exact tear decided by hash (0 = default 64).
	TornTailBytes int
}

// DiskInjector makes deterministic per-(key, op, ordinal) disk failure
// decisions. The ordinal is the injector's own count of operations seen for
// that key+op, so determinism holds whenever the caller serialises each
// operation kind on one key (the WAL does: writes happen under the log's
// mutex, fsyncs one at a time under its sync lock — and only physical
// fsyncs are counted, a Commit that finds its records already covered
// consults nothing). It is safe for concurrent use.
type DiskInjector struct {
	cfg DiskConfig

	mu       sync.Mutex
	ordinals map[string]int
	injected map[string]int
	total    int
}

// NewDisk builds a disk fault injector.
func NewDisk(cfg DiskConfig) *DiskInjector {
	return &DiskInjector{
		cfg:      cfg,
		ordinals: make(map[string]int),
		injected: make(map[string]int),
	}
}

func (d *DiskInjector) rate(op string) float64 {
	switch op {
	case DiskOpWrite:
		return d.cfg.WriteRate
	case DiskOpSync:
		return d.cfg.SyncRate
	}
	return 0
}

// Check decides whether one disk operation on key fails, returning the
// injected *DiskError or nil. Each call advances the (key, op) ordinal, so
// the decision stream for a key is a pure function of (seed, key, op
// sequence) no matter which goroutine drives it.
func (d *DiskInjector) Check(key, op string) error {
	if d == nil {
		return nil
	}
	r := d.rate(op)
	d.mu.Lock()
	defer d.mu.Unlock()
	ok := d.ordinals
	ord := ok[key+"\x00"+op]
	ok[key+"\x00"+op] = ord + 1
	if r <= 0 {
		return nil
	}
	if d.cfg.MaxFaults > 0 && d.total >= d.cfg.MaxFaults {
		return nil
	}
	if r < 1 && hash01(uint64(d.cfg.Seed), KeyHash(key), uint64(ord), diskOpIndex(op)) >= r {
		return nil
	}
	d.injected[op]++
	d.total++
	return &DiskError{Op: op, Key: key, Ordinal: ord}
}

// TornTail returns the number of bytes a simulated crash tears off the tail
// of key's log, in [1, TornTailBytes]. The tear is decided by hash of the
// (key, crash ordinal) so repeated crashes tear differently but replayably.
func (d *DiskInjector) TornTail(key string) int {
	max := d.cfg.TornTailBytes
	if max <= 0 {
		max = 64
	}
	d.mu.Lock()
	ord := d.ordinals[key+"\x00torn"]
	d.ordinals[key+"\x00torn"] = ord + 1
	d.mu.Unlock()
	u := hash01(uint64(d.cfg.Seed), KeyHash(key), uint64(ord), 14)
	return 1 + int(u*float64(max))
}

// Injected returns the total number of disk faults injected so far.
func (d *DiskInjector) Injected() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// ByOp returns a copy of the per-operation injection counts.
func (d *DiskInjector) ByOp() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.injected))
	for op, c := range d.injected {
		out[op] = c
	}
	return out
}
