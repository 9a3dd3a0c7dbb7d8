package cache

import (
	"math/rand"
	"testing"

	"rpg2/internal/mem"
)

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
	if s := h.Stats(); h.Present(addr(5)) || s.UselessPF != 0 {
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
	if h.Present(addr(7)) || h.Present(addr(9)) {
		t.Fatal("cache contents not cleared")
	}
	r := h.Access(1, addr(7), 0)
	if !r.LLCMiss {
		t.Fatal("access after reset should miss")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := New(testConfig())
	h.Access(1, addr(7), 0)
	h.ResetStats()
	if h.Stats().DemandAccesses != 0 {
		t.Fatal("stats not reset")
	}
	if r := h.Access(1, addr(7), 500); r.Level != 1 {
		t.Fatalf("contents should survive ResetStats: %+v", r)
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
			g.victim, g.valid, g.pf = got.install(line, isPF)
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
