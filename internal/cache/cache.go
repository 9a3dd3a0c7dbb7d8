// Package cache models the memory hierarchy of the simulated machine: a
// three-level set-associative cache (L1d, L2, shared L3/LLC), an MSHR-style
// table of in-flight fills, a DRAM model with latency and bounded bandwidth,
// and a hardware stride prefetcher.
//
// The model is deliberately built so the phenomena the RPG² paper depends on
// emerge from first principles rather than from curve fitting:
//
//   - Sequential (stride) access streams are covered by the hardware
//     prefetcher, so direct a[j] loops rarely miss — matching the paper's
//     observation that modern CPUs prefetch strides well but struggle with
//     indirect accesses.
//   - A software prefetch issued too late overlaps only part of the DRAM
//     latency: the consuming demand load finds the line in flight and pays
//     the residual.
//   - A software prefetch issued too early is installed and then ages in the
//     LRU like any other line; if the loop's demand traffic churns the cache
//     before the line is used, the prefetch is (partially or fully) wasted.
//   - All fills occupy DRAM service slots, so prefetch traffic competes with
//     demand traffic for bandwidth and prefetching can slow a program down.
package cache

import (
	"math/bits"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// Line identifies a cache line (an address shifted by the line size).
type Line = uint64

// lineShift converts word addresses to line IDs; isa.LineWords must be 8.
const lineShift = 3

// LineOf returns the cache line containing the word address.
func LineOf(a mem.Addr) Line { return a >> lineShift }

var _ = isa.LineWords // line geometry is shared with the ISA definition

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Name labels the level in stats output ("L1d", "L2", "L3").
	Name string
	// Lines is the capacity in cache lines; it must be a multiple of
	// Assoc and the resulting set count must be a power of two.
	Lines int
	// Assoc is the set associativity.
	Assoc int
	// Latency is the access latency in cycles charged when this level
	// services a demand load.
	Latency uint64
}

// DRAMConfig describes the memory controller model.
type DRAMConfig struct {
	// Latency is the cycles from issuing a fill until data arrives.
	Latency uint64
	// ServiceCycles is the occupancy of one line fill at the controller;
	// its reciprocal is the sustainable fill bandwidth.
	ServiceCycles uint64
	// MSHRs bounds the number of in-flight fills. Software and hardware
	// prefetches are dropped when the table is full; demand fills queue.
	MSHRs int
}

// StrideConfig describes the hardware stride prefetcher.
type StrideConfig struct {
	// Enabled turns the prefetcher on (the paper runs with all hardware
	// prefetchers enabled).
	Enabled bool
	// TableSize is the number of PC-indexed tracking entries.
	TableSize int
	// Confidence is the number of consecutive same-stride accesses
	// required before the prefetcher starts issuing.
	Confidence int
	// Degree is how many lines ahead the prefetcher runs.
	Degree int
}

// Config assembles a full hierarchy description.
type Config struct {
	L1, L2, L3 LevelConfig
	DRAM       DRAMConfig
	Stride     StrideConfig
}

// AccessKind distinguishes the source of an access for stats and policy.
type AccessKind uint8

// Access kinds.
const (
	// Demand is an architectural load or store.
	Demand AccessKind = iota
	// SoftwarePrefetch is an explicit prefetch instruction.
	SoftwarePrefetch
	// HardwarePrefetch is issued by the stride engine.
	HardwarePrefetch
)

// Result reports the outcome of a demand access.
type Result struct {
	// Cycles is the total latency charged to the access.
	Cycles uint64
	// LLCMiss is true when the access missed in every cache level and had
	// to be serviced by DRAM (including waiting on an in-flight fill that
	// was itself a DRAM fill). This is the event PEBS samples.
	LLCMiss bool
	// Level is the level that serviced the access: 1..3 for cache hits,
	// 4 for DRAM, 0 for an in-flight (MSHR) hit.
	Level int
}

// Stats aggregates hierarchy counters.
type Stats struct {
	DemandAccesses uint64
	L1Hits         uint64
	L2Hits         uint64
	L3Hits         uint64
	MSHRHits       uint64
	DRAMFills      uint64
	LLCMisses      uint64
	SWPrefetches   uint64
	HWPrefetches   uint64
	DroppedPF      uint64
	UselessPF      uint64 // prefetched lines evicted from all levels unused
	TimelyPF       uint64 // demand hits on completed prefetched lines
	LatePF         uint64 // demand hits on still-in-flight prefetched lines
}

// level is one set-associative cache level under exact LRU. A way is one
// packed word, (line+1)<<1 | unusedPF, 0 when invalid, and every set is kept
// most-recently-used first: a hit moves its way to the front, a fill shifts
// the set down and drops the tail, where the invalid ways and then the
// least recently used one sit (DESIGN.md §2).
type level struct {
	cfg     LevelConfig
	setMask uint64
	ways    []uint64
}

func newLevel(cfg LevelConfig) *level {
	if cfg.Lines%cfg.Assoc != 0 {
		panic("cache: lines must be a multiple of associativity: " + cfg.Name)
	}
	sets := cfg.Lines / cfg.Assoc
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two: " + cfg.Name)
	}
	return &level{cfg: cfg, setMask: uint64(sets - 1), ways: make([]uint64, cfg.Lines)}
}

// set returns the line's set and the line's packed word with the mark clear.
func (l *level) set(line Line) (set []uint64, key uint64) {
	base := int(line&l.setMask) * l.cfg.Assoc
	return l.ways[base : base+l.cfg.Assoc], (line + 1) << 1
}

// lookup probes the level; on hit it makes the line most recently used,
// clears its unused-prefetch mark and reports whether the mark was set.
func (l *level) lookup(line Line) (hit, wasPF bool) {
	set, key := l.set(line)
	for i, w := range set {
		if w&^1 == key {
			copy(set[1:i+1], set[:i])
			set[0] = key
			return true, w&1 != 0
		}
	}
	return false, false
}

// front reports whether the line is its set's most recently used way with
// the mark clear: the hit a lookup would leave the set unchanged on.
func (l *level) front(line Line) bool {
	return l.ways[int(line&l.setMask)*l.cfg.Assoc] == (line+1)<<1
}

// second takes the hit a lookup would find at the set's second way with the
// mark clear, as the two-word swap that lookup's shift is at that position,
// and reports whether the line was there. A 1-way level has no second way.
func (l *level) second(line Line) bool {
	if l.cfg.Assoc < 2 {
		return false
	}
	b := int(line&l.setMask) * l.cfg.Assoc
	key := (line + 1) << 1
	if l.ways[b+1] != key {
		return false
	}
	l.ways[b+1] = l.ways[b]
	l.ways[b] = key
	return true
}

// clearPF clears the unused-prefetch mark if the line is present, so a line
// consumed at an upper level is not later miscounted as a useless prefetch.
func (l *level) clearPF(line Line) {
	set, key := l.set(line)
	for i, w := range set {
		if w&^1 == key {
			set[i] = key
			return
		}
	}
}

// present probes without touching LRU state.
func (l *level) present(line Line) bool {
	set, key := l.set(line)
	for _, w := range set {
		if w&^1 == key {
			return true
		}
	}
	return false
}

// push makes w, the line's packed word, its set's most recently used way and
// returns the tail word it dropped: 0 for an invalid way.
func (l *level) push(line Line, w uint64) (tail uint64) {
	set, _ := l.set(line)
	tail = set[len(set)-1]
	copy(set[1:], set)
	set[0] = w
	return tail
}

// packed is the line's way word, with the unused-prefetch mark if isPF.
func packed(line Line, isPF bool) uint64 {
	w := (line + 1) << 1
	if isPF {
		w |= 1
	}
	return w
}

func (l *level) reset() { clear(l.ways) }

type strideEntry struct {
	pc     uint64
	last   Line
	stride int64
	conf   int
}

// mshr is one in-flight fill: the line being fetched and the cycle its data
// arrives. The table is a small fixed array, like the hardware CAM it
// models; entries whose completion has passed are free, and a never-used or
// consumed entry has completion 0.
type mshr struct {
	line     Line
	complete uint64
}

// Hierarchy is the full memory system. It is not safe for concurrent use;
// the simulated machine drives it from a single goroutine.
type Hierarchy struct {
	cfg         Config
	l1, l2      *level
	l3          *level
	where       []uint8 // line directory: bit k is set while level k+1 holds the line
	dramFree    uint64  // next cycle the DRAM controller is free
	maxComplete uint64  // latest in-flight completion, for a fast skip
	inflight    []mshr
	inflightSig [sigBits / 64]uint64 // bit line%sigBits is set for every unconsumed entry's line
	sigCount    [sigBits]uint16      // unconsumed entries per signature bit
	stride      []strideEntry
	strideMask  uint64 // len(stride)-1, for strideIndex when that is a power of two
	strideRecip uint64 // floor((2^64-1) / len(stride)) otherwise, and 0 for a power of two
	stats       Stats
}

// sigBits is the width of the MSHR signature: wide enough that a line not in
// flight almost never shares a bit with one that is.
const sigBits = 1024

// New builds a hierarchy from the configuration.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:      cfg,
		l1:       newLevel(cfg.L1),
		l2:       newLevel(cfg.L2),
		l3:       newLevel(cfg.L3),
		inflight: make([]mshr, cfg.DRAM.MSHRs),
	}
	if cfg.Stride.Enabled {
		n := uint64(cfg.Stride.TableSize)
		h.stride = make([]strideEntry, n)
		if n&(n-1) == 0 {
			h.strideMask = n - 1
		} else {
			h.strideRecip = ^uint64(0) / n
		}
	}
	return h
}

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Reset empties all cache state and counters.
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
	clear(h.where)
	h.stats = Stats{}
	h.dramFree = 0
	h.maxComplete = 0
	clear(h.inflight)
	h.inflightSig = [sigBits / 64]uint64{}
	h.sigCount = [sigBits]uint16{}
	if h.stride != nil {
		clear(h.stride)
	}
}

// findInflight returns the MSHR index tracking the line (still in flight at
// the given cycle), or -1.
func (h *Hierarchy) findInflight(line Line, now uint64) int {
	if h.inflightSig[line/64%(sigBits/64)]>>(line%64)&1 == 0 {
		return -1
	}
	for i := range h.inflight {
		e := &h.inflight[i]
		if e.line == line && e.complete > now {
			return i
		}
	}
	return -1
}

// allocInflight claims a free MSHR (unused or expired); it returns -1 when
// the table is full.
func (h *Hierarchy) allocInflight(now uint64) int {
	for i := range h.inflight {
		e := &h.inflight[i]
		if e.complete <= now {
			return i
		}
	}
	return -1
}

// setInflight writes one MSHR and keeps the signature findInflight filters
// on exact by counting the unconsumed entries under each bit; a consumed
// entry is written as the zero mshr.
func (h *Hierarchy) setInflight(slot int, e mshr) {
	if old := h.inflight[slot]; old.complete != 0 {
		b := old.line % sigBits
		if h.sigCount[b]--; h.sigCount[b] == 0 {
			h.inflightSig[b/64] &^= 1 << (b % 64)
		}
	}
	h.inflight[slot] = e
	if e.complete != 0 {
		b := e.line % sigBits
		h.sigCount[b]++
		h.inflightSig[b/64] |= 1 << (b % 64)
	}
}

// The line directory's level bits, and its cap: lines at or past dirCap
// (1 GiB of simulated data; the directory is 16 MiB there) are not tracked
// and held scans for them.
const (
	inL1 = 1 << iota
	inL2
	inL3

	dirCap = 1 << 24
)

// held returns the levels that hold the line, as directory bits. The
// directory reaches the highest line ever filled, so a line past its end
// but below the cap is in no level.
func (h *Hierarchy) held(line Line) uint8 {
	if line < Line(len(h.where)) {
		return h.where[line]
	}
	return h.heldUntracked(line)
}

// heldUntracked answers held for a line the directory has no byte for.
func (h *Hierarchy) heldUntracked(line Line) uint8 {
	if line < dirCap {
		return 0
	}
	var m uint8
	if h.l1.present(line) {
		m |= inL1
	}
	if h.l2.present(line) {
		m |= inL2
	}
	if h.l3.present(line) {
		m |= inL3
	}
	return m
}

// push pushes the line's packed word w into level l (directory bit), which
// does not hold the line, and clears the bit of the line the level dropped;
// the caller sets the line's own bit. Fills are the only place residency
// changes, so the directory is exact. It reports whether the dropped line
// was an unused prefetch. An invalid tail, 0, names line 2⁶⁴-1, which no
// directory reaches, so it clears nothing.
func (h *Hierarchy) push(l *level, bit uint8, line Line, w uint64) (victimPF bool) {
	tail := l.push(line, w)
	if victim := tail>>1 - 1; victim < Line(len(h.where)) {
		h.where[victim] &^= bit
	}
	return tail&1 != 0
}

// growDir extends the directory to cover the line, at least doubling it.
func (h *Hierarchy) growDir(line Line) {
	n := min(max(int(line)+1, 2*len(h.where)), dirCap)
	where := make([]uint8, n)
	copy(where, h.where)
	h.where = where
}

// fillAll fills a line absent from every level into every level (an
// inclusive hierarchy), and tracks useless-prefetch victims. The line held
// no level, so once each victim's bit is cleared its directory byte is
// stored whole.
//
// It is the three levels' push in one flat pass, with no call but the set
// shifts: the miss path's commonest fill.
func (h *Hierarchy) fillAll(line Line, isPF bool) {
	w := packed(line, isPF)
	t1 := h.l1.push(line, w)
	t2 := h.l2.push(line, w)
	t3 := h.l3.push(line, w)
	where := h.where
	if v := t1>>1 - 1; v < Line(len(where)) {
		where[v] &^= inL1
	}
	if v := t2>>1 - 1; v < Line(len(where)) {
		where[v] &^= inL2
	}
	if v := t3>>1 - 1; v < Line(len(where)) {
		where[v] &^= inL3
	}
	if t3&1 != 0 {
		h.stats.UselessPF++
	}
	if line < dirCap {
		if line >= Line(len(h.where)) {
			h.growDir(line)
		}
		h.where[line] = inL1 | inL2 | inL3
	}
}

// refill fills a line a lower level holds (held, its directory bits) into
// the levels above it: L1 on an L2 hit, L1 and L2 on an L3 hit. A held line
// below the cap already has a directory byte, so one |= marks it.
func (h *Hierarchy) refill(line Line, held uint8) {
	w := packed(line, false)
	bits := uint8(inL1)
	h.push(h.l1, inL1, line, w)
	if held&inL2 == 0 {
		h.push(h.l2, inL2, line, w)
		bits |= inL2
	}
	if line < dirCap {
		h.where[line] |= bits
	}
}

// install fills an in-flight line into level l (directory bit), where it may
// still be; if it is, it is consumed in place exactly as a lookup hit
// consumes it. Its fill at issue grew the directory to cover it.
func (h *Hierarchy) install(l *level, bit, held uint8, line Line) (victimPF bool) {
	if held&bit != 0 {
		l.lookup(line)
		return false
	}
	victimPF = h.push(l, bit, line, packed(line, false))
	if line < dirCap {
		h.where[line] |= bit
	}
	return victimPF
}

// Access performs a demand load or store at word address addr, issued by the
// instruction at pc at the given cycle, and returns the latency outcome.
// Stores are modelled as cache accesses with the same fill path but callers
// typically hide store latency (store buffer), so only loads charge cycles.
func (h *Hierarchy) Access(pc uint64, addr mem.Addr, now uint64) Result {
	h.stats.DemandAccesses++
	line := LineOf(addr)

	res := h.demandLookup(line, now)

	if h.stride != nil {
		// The PC's stride entry trains here, in line; only a confident
		// entry calls out, to issue. An entry that already saw this PC at
		// this line learns nothing from seeing it again, and most
		// accesses are such repeats.
		e := &h.stride[h.strideIndex(pc)]
		switch {
		case e.pc != pc:
			*e = strideEntry{pc: pc, last: line}
		case e.last != line:
			if d := int64(line) - int64(e.last); d == e.stride {
				e.conf++
			} else {
				e.stride = d
				e.conf = 0
			}
			e.last = line
			if e.conf >= h.cfg.Stride.Confidence {
				h.strideIssue(e, line, now+res.Cycles)
			}
		}
	}
	return res
}

func (h *Hierarchy) demandLookup(line Line, now uint64) Result {
	// A line whose fill is still in flight (a late prefetch) is present
	// in the arrays but its data has not arrived: the consumer pays the
	// residual latency. This check must precede the hit paths.
	if h.maxComplete > now {
		if i := h.findInflight(line, now); i >= 0 {
			c := h.inflight[i].complete
			h.setInflight(i, mshr{})
			h.stats.MSHRHits++
			h.stats.LatePF++
			h.stats.LLCMisses++
			// Installed at issue time, the line may have been evicted
			// since from any level. Where it is still present this use
			// consumes its mark: late is not also timely, or useless.
			held := h.held(line)
			h.install(h.l1, inL1, held, line)
			h.install(h.l2, inL2, held, line)
			if h.install(h.l3, inL3, held, line) {
				h.stats.UselessPF++
			}
			return Result{Cycles: (c - now) + h.cfg.L1.Latency, LLCMiss: true, Level: 0}
		}
	}
	// The commonest access of all, a consumed line still most recently used
	// in its L1 set, changes nothing and needs no directory read; the next
	// commonest, the same line one way down, is lookup's shift as a swap.
	if h.l1.front(line) || h.l1.second(line) {
		h.stats.L1Hits++
		return Result{Cycles: h.cfg.L1.Latency, Level: 1}
	}
	held := h.held(line)
	switch {
	case held&inL1 != 0:
		_, wasPF := h.l1.lookup(line)
		h.stats.L1Hits++
		if wasPF {
			h.stats.TimelyPF++
			if held&inL2 != 0 {
				h.l2.clearPF(line)
			}
			if held&inL3 != 0 {
				h.l3.clearPF(line)
			}
		}
		return Result{Cycles: h.cfg.L1.Latency, Level: 1}
	case held&inL2 != 0:
		_, wasPF := h.l2.lookup(line)
		h.stats.L2Hits++
		if wasPF {
			h.stats.TimelyPF++
			if held&inL3 != 0 {
				h.l3.clearPF(line)
			}
		}
		h.refill(line, held)
		return Result{Cycles: h.cfg.L2.Latency, Level: 2}
	case held&inL3 != 0:
		_, wasPF := h.l3.lookup(line)
		h.stats.L3Hits++
		if wasPF {
			h.stats.TimelyPF++
		}
		h.refill(line, held)
		return Result{Cycles: h.cfg.L3.Latency, Level: 3}
	}
	// Full miss: occupy a DRAM service slot.
	h.stats.DRAMFills++
	h.stats.LLCMisses++
	start := max(now, h.dramFree)
	h.dramFree = start + h.cfg.DRAM.ServiceCycles
	complete := start + h.cfg.DRAM.Latency
	h.fillAll(line, false)
	return Result{Cycles: complete - now, LLCMiss: true, Level: 4}
}

// Prefetch requests the line containing addr without blocking. It returns
// true if a fill was actually started (for stats and tests). kind selects
// software vs hardware prefetch accounting.
func (h *Hierarchy) Prefetch(addr mem.Addr, now uint64, kind AccessKind) bool {
	line := LineOf(addr)
	switch kind {
	case SoftwarePrefetch:
		h.stats.SWPrefetches++
	case HardwarePrefetch:
		h.stats.HWPrefetches++
	}
	if h.held(line) != 0 {
		return false
	}
	return h.issue(line, now)
}

// issue starts a prefetch fill of a line no level holds, unless the line is
// already in flight or every MSHR is busy, and reports whether it started.
func (h *Hierarchy) issue(line Line, now uint64) bool {
	if h.findInflight(line, now) >= 0 {
		return false
	}
	slot := h.allocInflight(now)
	if slot < 0 {
		h.stats.DroppedPF++
		return false
	}
	start := max(now, h.dramFree)
	h.dramFree = start + h.cfg.DRAM.ServiceCycles
	complete := start + h.cfg.DRAM.Latency
	if complete > h.maxComplete {
		h.maxComplete = complete
	}
	h.setInflight(slot, mshr{line: line, complete: complete})
	// Install immediately (marked prefetched) so the line participates in
	// replacement from issue time; consumers arriving before completion
	// pay the residual via the inflight table.
	h.fillAll(line, true)
	return true
}

// strideIndex is pc % len(h.stride) without the division: a mask for a
// power-of-two table, and otherwise the high word of pc * strideRecip, which
// is the quotient or one less, for any pc and table size.
func (h *Hierarchy) strideIndex(pc uint64) uint64 {
	if h.strideRecip == 0 {
		return pc & h.strideMask
	}
	n := uint64(len(h.stride))
	q, _ := bits.Mul64(pc, h.strideRecip)
	i := pc - q*n
	if i >= n {
		i -= n
	}
	return i
}

// strideIssue issues the hardware prefetches of a confident stride entry e
// that Access has just trained on the line.
func (h *Hierarchy) strideIssue(e *strideEntry, line Line, now uint64) {
	for i := 1; i <= h.cfg.Stride.Degree; i++ {
		next := int64(line) + e.stride*int64(i)
		if next < 0 {
			break
		}
		// Prefetch's count and held test, inline: most candidates are
		// held, and are counted and dropped without a call.
		h.stats.HWPrefetches++
		if c := LineOf(mem.Addr(next) << lineShift); h.held(c) == 0 {
			h.issue(c, now)
		}
	}
}
