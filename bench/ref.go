package main

import (
	"runtime"
	"time"
)

// The reference unit. Host-time end-to-end metrics are divided by the cost
// of this fixed pure-Go kernel, timed immediately before and after the
// slice or round they belong to, so a slower or busier host scales
// numerator and denominator together and points taken on different
// machines compare by ratio.
//
// Three choices here were made by measurement on the shared 2-CPU sandbox
// (README.md has the numbers):
//
//   - The table is 1 MiB, L2-resident like the interpreter's own hot state.
//     A 16 MiB table reads a neighbour's memory traffic, not the host's
//     speed: 25% interquartile spread inside one process against 4%.
//   - A run is timed as a whole (its mean). The fastest of several chunks
//     finds the host's best moment instead of its current condition and
//     tracks the workload worse.
//   - It runs on one goroutine whatever the workload uses. On W goroutines
//     it needs every P at once, and reads the garbage collector's
//     background worker (2.6-4.4 ns/op from one round to the next) rather
//     than the host.
const (
	refTableWords = 1 << 20 / 8
	// refOps is one reference run between fleet rounds (each about a
	// second of work); refOpsSlice is the shorter run between the
	// interpreter workloads' ~30 ms slices.
	refOps      = 4 << 20
	refOpsSlice = 1 << 20
	// refNominalNS is what one reference operation costs on the 2-CPU
	// sandbox when it is quiet. setup_s is reported in seconds of a host
	// of exactly this speed (see timeSetup).
	refNominalNS = 2.6
)

type reference struct {
	table []uint64
}

func newReference() *reference {
	r := &reference{table: make([]uint64, refTableWords)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range r.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.table[i] = x
	}
	return r
}

// refSink keeps the kernel's result live so the loop is not eliminated.
var refSink uint64

func refKernel(table []uint64, x uint64, ops int) uint64 {
	mask := uint64(len(table) - 1)
	var acc uint64
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&mask]
		acc = (acc ^ v) * 0x100000001B3
		acc += acc >> 29
	}
	return acc
}

// run executes ops reference operations and returns host nanoseconds per
// operation.
func (r *reference) run(ops int) float64 {
	start := time.Now()
	refSink ^= refKernel(r.table, 1, ops)
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// timeSetup times one set-up and returns it in seconds of the nominal host:
// wall seconds scaled by refNominalNS over the reference cost measured
// around it. The contract fixes setup_s's unit as seconds, so it cannot be
// a plain ratio like the other metrics; but raw seconds do not repeat here
// (two sets of runs ten minutes apart: the host 24% slower, raw set-up
// +28%, past its own bound), and a set-up is too short to shed that with
// low quantiles.
//
// setUps drops what the previous set-up built before the next one; the heap
// is collected before and after, outside the timed interval. Without that,
// whether a collection happens to fall while two set-ups' worth of
// workloads are live decides the collector's next goal, and with it
// peak_rss_mb: the same workload read 296 MB and 485 MB across two builds
// of this harness that differed in nothing that allocates.
func (r *run) timeSetup(setup func() error) (float64, error) {
	runtime.GC()
	before := r.ref.run(refOps)
	start := time.Now()
	err := setup()
	wall := time.Since(start).Seconds()
	after := r.ref.run(refOps)
	runtime.GC()
	return wall * refNominalNS / ((before + after) / 2), err
}

// setUps runs setup n times, calling teardown (which must also drop every
// reference to what the set-up built) before each one after the first, and
// returns each set-up's time. The last set-up is the one the pass measures.
func (r *run) setUps(n int, teardown func(), setup func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		s, err := r.timeSetup(setup)
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}
	return secs, nil
}
