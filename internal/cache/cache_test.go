package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rpg2/internal/mem"
)

// present reports whether the line holding addr is in any cache level. It
// scans the levels rather than reading the line directory, so it is the
// directory's independent witness.
func present(h *Hierarchy, addr mem.Addr) bool {
	line := LineOf(addr)
	return h.l1.present(line) || h.l2.present(line) || h.l3.present(line)
}

// testConfig is a tiny hierarchy where eviction behaviour is easy to reason
// about: L1 4 lines (2-way), L2 8 lines, L3 16 lines.
func testConfig() Config {
	return Config{
		L1:   LevelConfig{Name: "L1d", Lines: 4, Assoc: 2, Latency: 1},
		L2:   LevelConfig{Name: "L2", Lines: 8, Assoc: 2, Latency: 10},
		L3:   LevelConfig{Name: "L3", Lines: 16, Assoc: 4, Latency: 30},
		DRAM: DRAMConfig{Latency: 100, ServiceCycles: 4, MSHRs: 4},
	}
}

func addr(line Line) mem.Addr { return line << lineShift }

func TestColdMissThenHits(t *testing.T) {
	h := New(testConfig())
	r := h.Access(1, addr(7), 0)
	if !r.LLCMiss || r.Level != 4 || r.Cycles != 100 {
		t.Fatalf("cold access: %+v", r)
	}
	r = h.Access(1, addr(7), 200)
	if r.LLCMiss || r.Level != 1 || r.Cycles != 1 {
		t.Fatalf("warm access should hit L1: %+v", r)
	}
	// A different word on the same line also hits.
	r = h.Access(1, addr(7)+3, 300)
	if r.Level != 1 {
		t.Fatalf("same-line access should hit: %+v", r)
	}
	s := h.Stats()
	if s.DRAMFills != 1 || s.L1Hits != 2 || s.LLCMisses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestInclusiveEvictionFallsBackToL2L3(t *testing.T) {
	h := New(testConfig())
	now := uint64(0)
	// Fill lines 0,2,4,6: all map to L1 set 0 (setMask 1, even lines),
	// L1 is 2-way, so two of them get evicted from L1 but stay in L2/L3.
	for _, l := range []Line{0, 2, 4, 6} {
		h.Access(1, addr(l), now)
		now += 200
	}
	r := h.Access(1, addr(0), now)
	if r.Level != 2 && r.Level != 3 {
		t.Fatalf("L1-evicted line should hit L2/L3, got level %d", r.Level)
	}
	if r.LLCMiss {
		t.Fatal("should not reach DRAM")
	}
}

func TestDRAMBandwidthSerializesFills(t *testing.T) {
	h := New(testConfig())
	// Two misses at the same instant: the second completes later because
	// the controller can only start one fill per ServiceCycles.
	r1 := h.Access(1, addr(10), 0)
	r2 := h.Access(1, addr(20), 0)
	if r2.Cycles != r1.Cycles+4 {
		t.Fatalf("second fill should queue: %d vs %d", r2.Cycles, r1.Cycles)
	}
}

func TestPrefetchTimely(t *testing.T) {
	h := New(testConfig())
	if !h.Prefetch(addr(5), 0, SoftwarePrefetch) {
		t.Fatal("prefetch should start a fill")
	}
	// After completion, the demand load is an L1 hit.
	r := h.Access(1, addr(5), 150)
	if r.LLCMiss || r.Level != 1 {
		t.Fatalf("timely prefetch not honoured: %+v", r)
	}
	s := h.Stats()
	if s.TimelyPF != 1 || s.SWPrefetches != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPrefetchLatePaysResidual(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(addr(5), 0, SoftwarePrefetch) // completes at 100
	r := h.Access(1, addr(5), 40)
	if !r.LLCMiss || r.Level != 0 {
		t.Fatalf("late prefetch should be an MSHR hit: %+v", r)
	}
	want := uint64(100-40) + 1 // residual + L1 fill latency
	if r.Cycles != want {
		t.Fatalf("residual = %d, want %d", r.Cycles, want)
	}
	if h.Stats().LatePF != 1 {
		t.Fatalf("stats: %+v", h.Stats())
	}
}

// A prefetch that arrives late is late, and nothing else: the demand access
// that finds it in flight consumes the unused-prefetch mark, so the next hit
// on the line is an ordinary one and its eventual eviction is not "useless".
func TestLatePrefetchIsCountedOnce(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(addr(5), 0, SoftwarePrefetch) // completes at 100
	h.Access(1, addr(5), 5)
	h.Access(1, addr(5), 1000)
	if s := h.Stats(); s.LatePF != 1 || s.TimelyPF != 0 || s.MSHRHits != 1 || s.L1Hits != 1 {
		t.Fatalf("want one late prefetch and one plain L1 hit: %+v", s)
	}
	now := uint64(2000)
	for l := Line(100); l < 160; l++ { // churn line 5 out of every level
		h.Access(1, addr(l), now)
		now += 200
	}
	if s := h.Stats(); present(h, addr(5)) || s.UselessPF != 0 {
		t.Fatalf("a used prefetch was evicted as useless: %+v", s)
	}
}

func TestPrefetchDeduplicates(t *testing.T) {
	h := New(testConfig())
	if !h.Prefetch(addr(5), 0, SoftwarePrefetch) {
		t.Fatal("first prefetch should fill")
	}
	if h.Prefetch(addr(5), 10, SoftwarePrefetch) {
		t.Fatal("second prefetch of an in-flight line should be a no-op")
	}
	if h.Prefetch(addr(5), 500, SoftwarePrefetch) {
		t.Fatal("prefetch of a cached line should be a no-op")
	}
}

func TestPrefetchDroppedWhenMSHRsFull(t *testing.T) {
	h := New(testConfig())
	for l := Line(0); l < 4; l++ {
		if !h.Prefetch(addr(l*8), 0, SoftwarePrefetch) {
			t.Fatalf("prefetch %d should start", l)
		}
	}
	if h.Prefetch(addr(99), 0, SoftwarePrefetch) {
		t.Fatal("fifth concurrent prefetch should be dropped (4 MSHRs)")
	}
	if h.Stats().DroppedPF != 1 {
		t.Fatalf("stats: %+v", h.Stats())
	}
	// After the fills complete, capacity frees up.
	if !h.Prefetch(addr(99), 500, SoftwarePrefetch) {
		t.Fatal("prefetch after drain should start")
	}
}

func TestStridePrefetcherCoversSequentialStream(t *testing.T) {
	cfg := testConfig()
	cfg.Stride = StrideConfig{Enabled: true, TableSize: 8, Confidence: 2, Degree: 2}
	h := New(cfg)
	now := uint64(0)
	misses := 0
	// Walk 64 consecutive lines from one PC; after training, the stride
	// engine should hide most of the stream.
	for l := Line(0); l < 64; l++ {
		r := h.Access(42, addr(l), now)
		if r.LLCMiss {
			misses++
		}
		now += 150 // slow enough for prefetches to land
	}
	if misses > 10 {
		t.Fatalf("stride prefetcher covered too little: %d/64 misses", misses)
	}
	if h.Stats().HWPrefetches == 0 {
		t.Fatal("no hardware prefetches issued")
	}
}

func TestStridePrefetcherIgnoresRandomPattern(t *testing.T) {
	cfg := testConfig()
	cfg.Stride = StrideConfig{Enabled: true, TableSize: 8, Confidence: 2, Degree: 2}
	h := New(cfg)
	rng := rand.New(rand.NewSource(1))
	now := uint64(0)
	issuedBefore := h.Stats().HWPrefetches
	for i := 0; i < 200; i++ {
		h.Access(42, addr(Line(rng.Intn(1<<20))), now)
		now += 150
	}
	issued := h.Stats().HWPrefetches - issuedBefore
	if issued > 40 {
		t.Fatalf("stride engine fired %d times on a random stream", issued)
	}
}

func TestUselessPrefetchCounted(t *testing.T) {
	h := New(testConfig())
	h.Prefetch(addr(3), 0, SoftwarePrefetch)
	// Churn the whole hierarchy so line 3 is evicted everywhere unused.
	now := uint64(200)
	for l := Line(100); l < 160; l++ {
		h.Access(1, addr(l), now)
		now += 200
	}
	if h.Stats().UselessPF == 0 {
		t.Fatal("evicted-unused prefetch not counted")
	}
}

func TestResetClearsEverything(t *testing.T) {
	h := New(testConfig())
	h.Access(1, addr(7), 0)
	h.Prefetch(addr(9), 0, SoftwarePrefetch)
	h.Reset()
	if h.Stats() != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", h.Stats())
	}
	if present(h, addr(7)) || present(h, addr(9)) {
		t.Fatal("cache contents not cleared")
	}
	r := h.Access(1, addr(7), 0)
	if !r.LLCMiss {
		t.Fatal("access after reset should miss")
	}
}

// Property: every demand access is serviced by exactly one place, so the
// per-level counters always sum to the total.
func TestStatsConservationProperty(t *testing.T) {
	cfg := testConfig()
	cfg.Stride = StrideConfig{Enabled: true, TableSize: 8, Confidence: 2, Degree: 2}
	h := New(cfg)
	rng := rand.New(rand.NewSource(7))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		if rng.Intn(4) == 0 {
			h.Prefetch(addr(Line(rng.Intn(256))), now, SoftwarePrefetch)
		}
		h.Access(uint64(rng.Intn(4)), addr(Line(rng.Intn(256))), now)
		now += uint64(rng.Intn(50))
	}
	s := h.Stats()
	if got := s.L1Hits + s.L2Hits + s.L3Hits + s.MSHRHits + s.DRAMFills; got != s.DemandAccesses {
		t.Fatalf("conservation violated: %d serviced vs %d accesses (%+v)", got, s.DemandAccesses, s)
	}
	if s.LLCMisses != s.MSHRHits+s.DRAMFills {
		t.Fatalf("LLC misses %d != MSHR %d + DRAM %d", s.LLCMisses, s.MSHRHits, s.DRAMFills)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	bad := testConfig()
	bad.L1.Lines = 6 // 3 sets: not a power of two
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry should panic at construction")
		}
	}()
	New(bad)
}

// The stride table is indexed by pc modulo its size, computed without a
// division; the multiply must agree with % for every size and any pc.
func TestStrideIndexIsModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{1, 2, 3, 7, 8, 48, 64, 1000, 4096, 4097}
	for _, n := range sizes {
		cfg := testConfig()
		cfg.Stride = StrideConfig{Enabled: true, TableSize: n, Confidence: 2, Degree: 2}
		h := New(cfg)
		pcs := []uint64{0, 1, uint64(n) - 1, uint64(n), uint64(n) + 1, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0), ^uint64(0) - uint64(n)}
		for i := 0; i < 2000; i++ {
			pcs = append(pcs, rng.Uint64()>>uint(rng.Intn(64)))
		}
		for _, pc := range pcs {
			if got, want := h.strideIndex(pc), pc%uint64(n); got != want {
				t.Fatalf("strideIndex(%d) with %d entries = %d, want %d", pc, n, got, want)
			}
		}
	}
}

// refLevel is the timestamp-LRU level the packed most-recently-used-first
// sets replaced, kept verbatim as the reference the new level must equal:
// tags, a use timestamp and an unused-prefetch flag per way, and an install
// that scans the set for the minimum timestamp.
type refLevel struct {
	cfg     LevelConfig
	sets    int
	setMask uint64
	tags    []uint64 // line ID + 1; 0 = invalid
	use     []uint64 // LRU timestamps
	pf      []bool   // line was brought in by a prefetch and not yet used
}

// fill installs a line the caller has just probed for and missed, as one
// push, and decodes the word push dropped into the evicted LRU line and
// whether that was an unused prefetch: the form refLevel.install answers in.
func (l *level) fill(line Line, isPF bool) (victim Line, victimValid, victimPF bool) {
	tail := l.push(line, packed(line, isPF))
	if tail == 0 {
		return 0, false, false
	}
	return tail>>1 - 1, true, tail&1 != 0
}

func newRefLevel(cfg LevelConfig) *refLevel {
	sets := cfg.Lines / cfg.Assoc
	return &refLevel{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, cfg.Lines),
		use:     make([]uint64, cfg.Lines),
		pf:      make([]bool, cfg.Lines),
	}
}

func (l *refLevel) lookup(line Line, clock uint64) (hit, wasPF bool) {
	base := int(line&l.setMask) * l.cfg.Assoc
	tag := line + 1
	for w := 0; w < l.cfg.Assoc; w++ {
		if l.tags[base+w] == tag {
			l.use[base+w] = clock
			wasPF = l.pf[base+w]
			l.pf[base+w] = false
			return true, wasPF
		}
	}
	return false, false
}

func (l *refLevel) clearPF(line Line) {
	base := int(line&l.setMask) * l.cfg.Assoc
	tag := line + 1
	for w := 0; w < l.cfg.Assoc; w++ {
		if l.tags[base+w] == tag {
			l.pf[base+w] = false
			return
		}
	}
}

func (l *refLevel) present(line Line) bool {
	base := int(line&l.setMask) * l.cfg.Assoc
	tag := line + 1
	for w := 0; w < l.cfg.Assoc; w++ {
		if l.tags[base+w] == tag {
			return true
		}
	}
	return false
}

func (l *refLevel) install(line Line, clock uint64, isPF bool) (victim Line, victimValid, victimPF bool) {
	base := int(line&l.setMask) * l.cfg.Assoc
	tag := line + 1
	lru, lruUse := base, l.use[base]
	for w := 0; w < l.cfg.Assoc; w++ {
		i := base + w
		if l.tags[i] == tag { // already present; refresh
			l.use[i] = clock
			return 0, false, false
		}
		if l.tags[i] == 0 {
			lru, lruUse = i, 0
		} else if l.use[i] < lruUse {
			lru, lruUse = i, l.use[i]
		}
	}
	victimValid = l.tags[lru] != 0
	if victimValid {
		victim = l.tags[lru] - 1
		victimPF = l.pf[lru]
	}
	l.tags[lru] = tag
	l.use[lru] = clock
	l.pf[lru] = isPF
	return victim, victimValid, victimPF
}

// rank returns the line's position in its set's recency order (0 = most
// recently used, -1 = absent) and its unused-prefetch flag.
func (l *refLevel) rank(line Line) (pos int, pf bool) {
	base := int(line&l.setMask) * l.cfg.Assoc
	tag := line + 1
	for w := 0; w < l.cfg.Assoc; w++ {
		if l.tags[base+w] != tag {
			continue
		}
		for v := 0; v < l.cfg.Assoc; v++ {
			if l.tags[base+v] != 0 && l.use[base+v] > l.use[base+w] {
				pos++
			}
		}
		return pos, l.pf[base+w]
	}
	return -1, false
}

// order returns the line's set as the level packs it: the valid ways most
// recently used first, (tag)<<1 | pf, then zeroes for the invalid ones.
func (l *refLevel) order(line Line) []uint64 {
	base := int(line&l.setMask) * l.cfg.Assoc
	var ws []int
	for w := base; w < base+l.cfg.Assoc; w++ {
		if l.tags[w] != 0 {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return l.use[ws[i]] > l.use[ws[j]] })
	set := make([]uint64, l.cfg.Assoc)
	for i, w := range ws {
		set[i] = l.tags[w] << 1
		if l.pf[w] {
			set[i] |= 1
		}
	}
	return set
}

func (l *refLevel) reset() {
	clear(l.tags)
	clear(l.use)
	clear(l.pf)
}

// levelOps drives a level and the reference through one operation per two
// bytes of ops and fails at the first observable difference: hit and wasPF
// of a lookup, present, and the (victim, valid, victimPF) triple of a fill.
// The reference's clock ticks once per operation, which is what the
// hierarchy gives each of its levels: at most one touch per access.
func levelOps(t *testing.T, assoc, sets int, ops []byte) {
	t.Helper()
	cfg := LevelConfig{Name: "L", Lines: assoc * sets, Assoc: assoc}
	got, ref := newLevel(cfg), newRefLevel(cfg)
	lines := uint64(2*assoc*sets + 1) // enough to overflow every set
	clock := uint64(0)
	for i := 0; i+1 < len(ops); i += 2 {
		clock++
		op, line := ops[i]%16, Line(ops[i+1])%lines
		isPF := ops[i]&16 != 0
		type triple struct {
			victim    Line
			valid, pf bool
		}
		var g, r triple
		samePresent := func() bool {
			gp, rp := got.present(line), ref.present(line)
			if gp != rp {
				t.Fatalf("op %d: present(%d) = %v, reference %v", i/2, line, gp, rp)
			}
			return gp
		}
		switch {
		case op < 1:
			// second is lookup's hit at position 1 with the mark clear,
			// and nothing else: it must answer exactly that and leave
			// the reference's set order.
			pos, pf := ref.rank(line)
			if g := got.second(line); g != (pos == 1 && !pf) {
				t.Fatalf("op %d: second(%d) = %v, reference holds it at position %d (pf %v)", i/2, line, g, pos, pf)
			} else if g {
				ref.lookup(line, clock)
			}
			set, _ := got.set(line)
			if want := ref.order(line); !slices.Equal(set, want) {
				t.Fatalf("op %d: after second(%d) set %v, reference %v", i/2, line, set, want)
			}
		case op < 5:
			gh, gp := got.lookup(line)
			rh, rp := ref.lookup(line, clock)
			if gh != rh || gp != rp {
				t.Fatalf("op %d: lookup(%d) = %v,%v, reference %v,%v", i/2, line, gh, gp, rh, rp)
			}
		case op < 9:
			// The reference's install left a present line's mark set,
			// which counted a late prefetch a second time as timely;
			// the level clears it, so the reference is made to.
			g.victim, g.valid, g.pf = refInstall(got, line, isPF)
			if ref.present(line) {
				ref.clearPF(line)
			}
			r.victim, r.valid, r.pf = ref.install(line, clock, isPF)
		case op < 12: // the known-absent fill, after the probe its callers make
			if !samePresent() {
				g.victim, g.valid, g.pf = got.fill(line, isPF)
				r.victim, r.valid, r.pf = ref.install(line, clock, isPF)
			}
		case op < 14:
			got.clearPF(line)
			ref.clearPF(line)
		case op < 15:
			samePresent()
		default:
			if line%8 == 0 { // rarely, or no set ever fills
				got.reset()
				ref.reset()
			}
		}
		if g != r {
			t.Fatalf("op %d: fill(%d, pf=%v) evicted %+v, reference %+v", i/2, line, isPF, g, r)
		}
	}
	// Whatever the operations left behind must agree too.
	for line := Line(0); line < lines; line++ {
		gh, gp := got.lookup(line)
		rh, rp := ref.lookup(line, clock+1+line)
		if gh != rh || gp != rp {
			t.Fatalf("final lookup(%d) = %v,%v, reference %v,%v", line, gh, gp, rh, rp)
		}
	}
}

// levelGeometry picks the associativity and set count a byte selects.
func levelGeometry(b byte) (assoc, sets int) {
	return []int{1, 2, 8, 16}[b%4], []int{1, 2, 4}[b/4%3]
}

func TestLevelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for geom := byte(0); geom < 12; geom++ {
		assoc, sets := levelGeometry(geom)
		for round := 0; round < 40; round++ {
			ops := make([]byte, 2*(1+rng.Intn(600)))
			rng.Read(ops)
			levelOps(t, assoc, sets, ops)
		}
	}
}

func FuzzLevelMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{5, 1, 5, 2, 0, 1, 5, 3, 0, 2})
	f.Add(byte(2), []byte{21, 1, 0, 1, 9, 2, 12, 2, 0, 2, 15, 0})
	f.Add(byte(7), []byte{})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		assoc, sets := levelGeometry(geom)
		levelOps(t, assoc, sets, ops)
	})
}

// refHierarchy is the hierarchy as it was before the line directory, kept
// verbatim as the reference the directory-driven one must equal: every
// lookup scans, absence is learned by scanning 8 + 16 + 16 ways, Prefetch
// probes three levels. Only what the directory touched is copied (Access,
// demandLookup, Prefetch, strideObserve, the MSHR table, Reset); the levels
// are the real ones, which refLevel above answers for.
type refHierarchy struct {
	cfg         Config
	l1, l2, l3  *level
	dramFree    uint64
	maxComplete uint64
	inflight    []mshr
	inflightSig uint64
	stride      []strideEntry
	stats       Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg, l1: newLevel(cfg.L1), l2: newLevel(cfg.L2), l3: newLevel(cfg.L3),
		inflight: make([]mshr, cfg.DRAM.MSHRs)}
	if cfg.Stride.Enabled {
		h.stride = make([]strideEntry, cfg.Stride.TableSize)
	}
	return h
}

func (h *refHierarchy) reset() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
	h.stats = Stats{}
	h.dramFree = 0
	h.maxComplete = 0
	clear(h.inflight)
	h.inflightSig = 0
	if h.stride != nil {
		clear(h.stride)
	}
}

func (h *refHierarchy) findInflight(line Line, now uint64) int {
	if h.inflightSig>>(line&63)&1 == 0 {
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

func (h *refHierarchy) allocInflight(now uint64) int {
	for i := range h.inflight {
		if h.inflight[i].complete <= now {
			return i
		}
	}
	return -1
}

func (h *refHierarchy) setInflight(slot int, e mshr) {
	h.inflight[slot] = e
	h.inflightSig = 0
	for _, e := range h.inflight {
		if e.complete != 0 {
			h.inflightSig |= 1 << (e.line & 63)
		}
	}
}

// refInstall is the level's old install: fill a line that may be present,
// consuming it in place if it is.
func refInstall(l *level, line Line, isPF bool) (victim Line, victimValid, victimPF bool) {
	if hit, _ := l.lookup(line); hit {
		return 0, false, false
	}
	return l.fill(line, isPF)
}

func (h *refHierarchy) fillAll(line Line, isPF bool) {
	h.l1.fill(line, isPF)
	h.l2.fill(line, isPF)
	if _, vValid, vPF := h.l3.fill(line, isPF); vValid && vPF {
		h.stats.UselessPF++
	}
}

func (h *refHierarchy) access(pc uint64, a mem.Addr, now uint64) Result {
	h.stats.DemandAccesses++
	line := LineOf(a)
	res := h.demandLookup(line, now)
	if h.stride != nil {
		h.strideObserve(pc, line, now+res.Cycles)
	}
	return res
}

func (h *refHierarchy) demandLookup(line Line, now uint64) Result {
	if h.maxComplete > now {
		if i := h.findInflight(line, now); i >= 0 {
			c := h.inflight[i].complete
			h.setInflight(i, mshr{})
			h.stats.MSHRHits++
			h.stats.LatePF++
			h.stats.LLCMisses++
			refInstall(h.l1, line, false)
			refInstall(h.l2, line, false)
			if _, vValid, vPF := refInstall(h.l3, line, false); vValid && vPF {
				h.stats.UselessPF++
			}
			return Result{Cycles: (c - now) + h.cfg.L1.Latency, LLCMiss: true, Level: 0}
		}
	}
	if hit, wasPF := h.l1.lookup(line); hit {
		h.stats.L1Hits++
		if wasPF {
			h.stats.TimelyPF++
			h.l2.clearPF(line)
			h.l3.clearPF(line)
		}
		return Result{Cycles: h.cfg.L1.Latency, Level: 1}
	}
	if hit, wasPF := h.l2.lookup(line); hit {
		h.stats.L2Hits++
		if wasPF {
			h.stats.TimelyPF++
			h.l3.clearPF(line)
		}
		h.l1.fill(line, false)
		return Result{Cycles: h.cfg.L2.Latency, Level: 2}
	}
	if hit, wasPF := h.l3.lookup(line); hit {
		h.stats.L3Hits++
		if wasPF {
			h.stats.TimelyPF++
		}
		h.l1.fill(line, false)
		h.l2.fill(line, false)
		return Result{Cycles: h.cfg.L3.Latency, Level: 3}
	}
	h.stats.DRAMFills++
	h.stats.LLCMisses++
	start := max(now, h.dramFree)
	h.dramFree = start + h.cfg.DRAM.ServiceCycles
	complete := start + h.cfg.DRAM.Latency
	h.fillAll(line, false)
	return Result{Cycles: complete - now, LLCMiss: true, Level: 4}
}

func (h *refHierarchy) prefetch(a mem.Addr, now uint64, kind AccessKind) bool {
	line := LineOf(a)
	switch kind {
	case SoftwarePrefetch:
		h.stats.SWPrefetches++
	case HardwarePrefetch:
		h.stats.HWPrefetches++
	}
	if h.l1.present(line) || h.l2.present(line) || h.l3.present(line) {
		return false
	}
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
	h.fillAll(line, true)
	return true
}

func (h *refHierarchy) strideObserve(pc uint64, line Line, now uint64) {
	e := &h.stride[pc%uint64(len(h.stride))]
	if e.pc != pc {
		*e = strideEntry{pc: pc, last: line}
		return
	}
	d := int64(line) - int64(e.last)
	if d == 0 {
		return
	}
	if d == e.stride {
		e.conf++
	} else {
		e.stride = d
		e.conf = 0
	}
	e.last = line
	if e.conf >= h.cfg.Stride.Confidence {
		for i := 1; i <= h.cfg.Stride.Degree; i++ {
			next := int64(line) + e.stride*int64(i)
			if next < 0 {
				break
			}
			h.prefetch(mem.Addr(next)<<lineShift, now, HardwarePrefetch)
		}
	}
}

func (h *refHierarchy) residency(line Line) (m uint8) {
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

// hierarchyConfig builds a tiny hierarchy from five bytes: a levelGeometry
// per level (sets overflow within a few lines), the stride engine off or
// with 48 or 64 entries (Haswell's and Cascade Lake's), and 1-16 MSHRs.
func hierarchyConfig(g1, g2, g3, stride, mshrs byte) Config {
	lv := func(name string, g byte, lat uint64) LevelConfig {
		assoc, sets := levelGeometry(g)
		return LevelConfig{Name: name, Lines: assoc * sets, Assoc: assoc, Latency: lat}
	}
	cfg := Config{L1: lv("L1d", g1, 1), L2: lv("L2", g2, 10), L3: lv("L3", g3, 30),
		DRAM: DRAMConfig{Latency: 100, ServiceCycles: 4, MSHRs: 1 + int(mshrs%16)}}
	if n := []int{0, 48, 64}[stride%3]; n != 0 {
		cfg.Stride = StrideConfig{Enabled: true, TableSize: n, Confidence: 1 + int(stride/3%2), Degree: 1 + int(stride/6%4)}
	}
	return cfg
}

// hierarchyOps drives a hierarchy and the reference through one operation
// per four bytes of ops (kind, line, pc, time step) and fails at the first
// difference in a Result, a Prefetch answer or any of the 13 Stats fields,
// or at an MSHR signature that is not the one its table rebuilds to;
// at the end present must agree for every line that could have been touched
// and the directory must equal the scanned residency.
//
// Lines come from a range small enough to evict constantly, from both sides
// of the directory cap, from the top of the address space, and from per-PC
// streams that train the stride engine (and run it off either end). The
// clock steps backwards as well as forwards: the stride engine issues at
// now+latency and a second core replays its quantum, so it does in
// production too. Lines just below the cap make the directory 16 MiB, which
// costs a run ~10 ms, so only runs with nearCap set draw them.
func hierarchyOps(t *testing.T, cfg Config, nearCap bool, ops []byte) {
	t.Helper()
	got, ref := New(cfg), newRefHierarchy(cfg)
	small := Line(2*cfg.L3.Lines + 3)
	pcs := []uint64{1, 2, 1 + 48, 1 + 64, 2 + 48*64}
	stream := make([]Line, len(pcs))
	touched := map[Line]bool{}
	now := uint64(1000)
	sameStats := func(i int, what string) {
		if g, r := got.Stats(), ref.stats; g != r {
			t.Fatalf("op %d: after %s stats %+v, reference %+v", i, what, g, r)
		}
	}
	for i := 0; i+3 < len(ops); i += 4 {
		kind, sel, p, step := ops[i]%32, ops[i+1], int(ops[i+2])%len(pcs), ops[i+3]
		if step < 64 { // a quarter of the steps go back, never past zero
			now -= min(now, uint64(step))
		} else {
			now += uint64(step-64) / 4 // 24 cycles a step: a fill (100) spans several operations
		}
		var line Line
		switch {
		case sel < 176:
			line = Line(sel) % small
		case sel < 208: // this PC's stream: the previous line plus a small signed stride
			line = stream[p] + Line(int64(sel%8)-2)
			if line >= 1<<61 {
				line = 0
			}
		case sel < 232 && nearCap:
			line = dirCap - 4 + Line(sel%8)
		case sel < 232:
			line = small + Line(sel%8)
		default:
			line = 1<<59 - 4 + Line(sel%8) // address 2^62
		}
		stream[p] = line
		for d := -16; d <= 16; d++ { // what the stride engine can reach from here
			touched[line+Line(int64(d))] = true
		}
		switch {
		case kind < 20:
			g, r := got.Access(pcs[p], addr(line)+mem.Addr(sel%8), now), ref.access(pcs[p], addr(line)+mem.Addr(sel%8), now)
			if g != r {
				t.Fatalf("op %d: Access(pc %d, line %d, now %d) = %+v, reference %+v", i/4, pcs[p], line, now, g, r)
			}
		case kind < 30:
			k := SoftwarePrefetch
			if kind >= 27 {
				k = HardwarePrefetch
			}
			if g, r := got.Prefetch(addr(line), now, k), ref.prefetch(addr(line), now, k); g != r {
				t.Fatalf("op %d: Prefetch(line %d, now %d, %d) = %v, reference %v", i/4, line, now, k, g, r)
			}
		case kind < 31:
			got.stats = Stats{}
			ref.stats = Stats{}
		default:
			if sel%4 == 0 { // rarely, or nothing ever ages
				got.Reset()
				ref.reset()
			}
		}
		sameStats(i/4, "the operation")
		var sig [sigBits / 64]uint64
		for _, e := range got.inflight {
			if e.complete != 0 {
				b := e.line % sigBits
				sig[b/64] |= 1 << (b % 64)
			}
		}
		if got.inflightSig != sig {
			t.Fatalf("op %d: MSHR signature %x, the table's unconsumed entries make %x", i/4, got.inflightSig, sig)
		}
	}
	if len(got.where) > dirCap {
		t.Fatalf("directory grew to %d lines, cap %d", len(got.where), dirCap)
	}
	for line := Line(0); line < small; line++ {
		touched[line] = true
	}
	for line := range touched {
		if line >= 1<<61 {
			continue
		}
		want := ref.residency(line)
		if g := present(got, addr(line)); g != (want != 0) {
			t.Fatalf("final present(line %d) = %v, reference residency %03b", line, g, want)
		}
		if g := got.held(line); g != want {
			t.Fatalf("final held(line %d) = %03b, scanned residency %03b", line, g, want)
		}
		if line < Line(len(got.where)) {
			delete(touched, line)
		}
	}
	// No stray bit anywhere else in the directory, a page at a time: near
	// the cap it is 16 MiB of zeroes.
	var zeroes [4096]uint8
	for base := 0; base < len(got.where); base += len(zeroes) {
		page := got.where[base:min(base+len(zeroes), len(got.where))]
		if bytes.Equal(page, zeroes[:len(page)]) {
			continue
		}
		for i, bits := range page {
			if line := Line(base + i); bits != ref.residency(line) {
				t.Fatalf("directory holds %03b for line %d, scanned residency %03b", bits, line, ref.residency(line))
			}
		}
	}
}

func TestHierarchyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 300; round++ {
		var g [5]byte
		rng.Read(g[:])
		ops := make([]byte, 4*(1+rng.Intn(1500)))
		rng.Read(ops)
		hierarchyOps(t, hierarchyConfig(g[0], g[1], g[2], g[3], g[4]), round%8 == 0, ops)
	}
	// A 1-way L1 has no second way for the demand path's swap to read:
	// every set count, under a 2-way and a 16-way L2 and L3, stride engine
	// on and off.
	for _, g1 := range []byte{0, 4, 8} {
		for _, g23 := range []byte{1, 3} {
			for stride := byte(0); stride < 3; stride++ {
				ops := make([]byte, 4*1500)
				rng.Read(ops)
				hierarchyOps(t, hierarchyConfig(g1, g23, g23, stride, 3), false, ops)
			}
		}
	}
}

func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add(byte(0), byte(1), byte(2), byte(0), byte(3), []byte{0, 5, 0, 100, 0, 5, 0, 100, 20, 7, 0, 64, 0, 7, 0, 70})
	f.Add(byte(5), byte(6), byte(11), byte(1), byte(128), []byte{0, 210, 1, 200, 0, 215, 1, 10, 21, 211, 2, 64, 31, 0, 0, 64})
	f.Add(byte(2), byte(2), byte(3), byte(8), byte(15), []byte{0, 240, 3, 90, 0, 180, 3, 90, 0, 180, 3, 90, 0, 180, 3, 20})
	f.Fuzz(func(t *testing.T, g1, g2, g3, stride, mshrs byte, ops []byte) {
		hierarchyOps(t, hierarchyConfig(g1, g2, g3, stride, mshrs), mshrs >= 128, ops)
	})
}
