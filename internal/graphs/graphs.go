// Package graphs provides the graph substrate for the CRONO workloads: a
// compressed-sparse-row representation, deterministic synthetic generators
// spanning the structural variety of the paper's SNAP inputs (uniform,
// power-law, grid, ring), and a named input catalogue standing in for the
// real-world SNAP datasets.
//
// Each generator writes the CSR arrays directly, at their exact final
// lengths, and draws from exact replicas of rand.NewSource's stream and of
// rand.Intn (source and bounded below, the latter division-free), so a
// seed yields the same graph it always has.
//
// The property of an input that the paper shows drives prefetch behaviour is
// its memory-level shape: the size of the indirectly accessed arrays
// relative to the LLC, and the per-iteration work (average degree, locality
// of the index stream). Those are exactly the generator knobs.
package graphs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// Graph is a directed graph in CSR form with optional edge weights.
type Graph struct {
	// N is the vertex count.
	N int
	// Offsets has length N+1; vertex v's out-edges are
	// Edges[Offsets[v]:Offsets[v+1]].
	Offsets []uint64
	// Edges holds destination vertex ids.
	Edges []uint64
	// Weights holds per-edge weights (same length as Edges); nil when
	// unweighted.
	Weights []uint64
	// SrcOf holds the source vertex of each edge (the transpose index
	// used by flat edge-loop kernels); same length as Edges.
	SrcOf []uint64
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.Edges) }

// source is rand.NewSource(seed)'s exact stream, drawn without an
// interface call. That source is an additive lagged Fibonacci generator:
// each output is x[n] = x[n-607] + x[n-273] mod 2^64, so its last 607
// outputs are its whole state. newSource draws the first 607 from
// rand.NewSource(seed) and runs the recurrence back 607 steps, so the
// first 607 draws from source replay them and the rest follow on.
type source struct {
	ring [srcLen]uint64 // the last srcLen outputs; ring[old] is the oldest
	old  int
	tap  int // ring index of x[n-srcTap]
}

const (
	srcLen = 607
	srcTap = 273
)

func newSource(seed int64) *source {
	var x [2 * srcLen]uint64 // x[srcLen+k] is output k
	rs := rand.NewSource(seed).(rand.Source64)
	for k := srcLen; k < len(x); k++ {
		x[k] = rs.Uint64()
	}
	for k := srcLen - 1; k >= 0; k-- {
		x[k] = x[k+srcLen] - x[k+srcLen-srcTap]
	}
	s := &source{tap: srcLen - srcTap}
	copy(s.ring[:], x[:srcLen])
	return s
}

// Uint64 is rand.Source64's.
func (s *source) Uint64() uint64 {
	v := s.ring[s.old] + s.ring[s.tap]
	s.ring[s.old] = v
	if s.old++; s.old == srcLen {
		s.old = 0
	}
	if s.tap++; s.tap == srcLen {
		s.tap = 0
	}
	return v
}

// Int63 is rand.Source's: the output without its top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed is rand.Source's.
func (s *source) Seed(seed int64) { *s = *newSource(seed) }

// bounded draws from [0, n) exactly as rand.Rand.Intn(n) does for one fixed
// n in [1, 2^31-1]: the same Int63 draws, the same rejections and the same
// result, with the rejection bound computed once and v % n done as Lemire's
// fastmod (a multiply-high by ceil(2^64/n), exact for 32-bit v and n)
// instead of two divisions per draw. Int31n's mask for a power-of-two n
// needs no path of its own: the bound then rejects nothing, and the
// fastmod of v is v & (n-1) (for n = 1, m wraps to 0 and so does v % 1).
type bounded struct {
	rng *source
	n   uint64
	max int32  // largest accepted Int31; rand.Int31n's rejection bound
	m   uint64 // ceil(2^64 / n), mod 2^64
}

func newBounded(rng *source, n int) bounded {
	if n <= 0 || n > 1<<31-1 {
		panic(fmt.Sprintf("graphs: bounded range %d out of [1, 2^31-1]", n))
	}
	return bounded{
		rng: rng,
		n:   uint64(n),
		max: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		m:   ^uint64(0)/uint64(n) + 1,
	}
}

func (b *bounded) next() uint64 {
	v := int32(b.rng.Int63() >> 32)
	for v > b.max {
		v = int32(b.rng.Int63() >> 32)
	}
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return hi
}

// edgeBlock is the length of the blocks destinations are drawn into while
// the edge count is not yet known.
const edgeBlock = 1 << 16

// blocks collects the destinations of a generator whose degrees are drawn
// between its destinations, so the edge count is known only at the end.
// Each vertex's destinations are drawn into one contiguous run, and edges
// copies them out in order into an array of the exact final length. (One
// slice grown by append and copied out once is simpler, but its regrowth
// copies made set-up 1.25x slower; see EXPERIMENTS.md.)
type blocks struct {
	full [][]uint64
	cur  []uint64
	m    int
}

// next returns room for a vertex's deg destinations.
func (b *blocks) next(deg int) []uint64 {
	if cap(b.cur)-len(b.cur) < deg {
		if len(b.cur) > 0 {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]uint64, 0, max(edgeBlock, deg))
	}
	b.cur = b.cur[:len(b.cur)+deg]
	b.m += deg
	return b.cur[len(b.cur)-deg:]
}

// edges returns every destination in draw order, exactly m long.
func (b *blocks) edges() []uint64 {
	out := make([]uint64, 0, b.m)
	for _, blk := range b.full {
		out = append(out, blk...)
	}
	return append(out, b.cur...)
}

// empty is every generator's graph on zero vertices.
func empty(weighted bool) *Graph {
	return (&Graph{Offsets: make([]uint64, 1), Edges: []uint64{}}).finish(weighted, nil)
}

// finish fills in SrcOf from Offsets and, when weighted, draws one weight
// in [1, 255] per edge in edge order, after every other draw.
func (g *Graph) finish(weighted bool, rng *source) *Graph {
	g.SrcOf = make([]uint64, len(g.Edges))
	for v := 0; v < g.N; v++ {
		src := g.SrcOf[g.Offsets[v]:g.Offsets[v+1]]
		for i := range src {
			src[i] = uint64(v)
		}
	}
	if weighted {
		w := newBounded(rng, 255)
		g.Weights = make([]uint64, len(g.Edges))
		for i := range g.Weights {
			g.Weights[i] = 1 + w.next()
		}
	}
	return g
}

// Uniform generates an Erdős–Rényi-style graph: each vertex v gets
// avgDeg/2 + Intn(avgDeg+1) out-edges (a mean of avgDeg for even avgDeg,
// avgDeg-0.5 for odd) to uniformly random destinations.
func Uniform(n, avgDeg int, weighted bool, seed int64) *Graph {
	if n == 0 {
		return empty(weighted)
	}
	rng := newSource(seed)
	degs, dsts := newBounded(rng, avgDeg+1), newBounded(rng, n)
	g := &Graph{N: n, Offsets: make([]uint64, n+1)}
	var b blocks
	for v := 0; v < n; v++ {
		l := b.next(avgDeg/2 + int(degs.next()))
		for i := range l {
			l[i] = dsts.next()
		}
		g.Offsets[v+1] = uint64(b.m)
	}
	g.Edges = b.edges()
	return g.finish(weighted, rng)
}

// PowerLaw generates a graph with a skewed degree distribution, standing in
// for social-network SNAP inputs: each vertex's out-degree is 1 plus a Zipf
// draw in [0, 4*avgDeg] with exponent 1+skew, so avgDeg bounds the degree
// rather than setting its mean (which comes out well below avgDeg, lower
// the higher the skew). A third of the destinations fall in the lowest
// n/16+1 ids, the rest anywhere. skew in (0,1]: higher is more skewed.
func PowerLaw(n, avgDeg int, skew float64, weighted bool, seed int64) *Graph {
	if n == 0 {
		return empty(weighted)
	}
	rng := newSource(seed)
	zipf := rand.NewZipf(rand.New(rng), 1.0+skew, 1.0, uint64(4*avgDeg))
	third, low, all := newBounded(rng, 3), newBounded(rng, 1+n/16), newBounded(rng, n)
	g := &Graph{N: n, Offsets: make([]uint64, n+1)}
	var b blocks
	for v := 0; v < n; v++ {
		l := b.next(int(zipf.Uint64()) + 1)
		for i := range l {
			// Preferential-attachment flavour: skew destinations
			// toward low ids.
			if third.next() == 0 {
				l[i] = low.next()
			} else {
				l[i] = all.next()
			}
		}
		g.Offsets[v+1] = uint64(b.m)
	}
	g.Edges = b.edges()
	return g.finish(weighted, rng)
}

// Grid generates a w×h 4-neighbour mesh, standing in for road networks:
// low, regular degree and high diameter. Each vertex lists its left,
// right, upper and lower neighbours, those that exist, in that order.
func Grid(w, h int, weighted bool, seed int64) *Graph {
	if w == 0 || h == 0 {
		return empty(weighted)
	}
	rng := newSource(seed)
	n := w * h
	g := &Graph{N: n, Offsets: make([]uint64, n+1), Edges: make([]uint64, 2*(w-1)*h+2*w*(h-1))}
	e := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x > 0 {
				g.Edges[e] = uint64(v - 1)
				e++
			}
			if x < w-1 {
				g.Edges[e] = uint64(v + 1)
				e++
			}
			if y > 0 {
				g.Edges[e] = uint64(v - w)
				e++
			}
			if y < h-1 {
				g.Edges[e] = uint64(v + w)
				e++
			}
			g.Offsets[v+1] = uint64(e)
		}
	}
	return g.finish(weighted, rng)
}

// Ring generates a ring of n vertices where each vertex links to its k
// successors, plus a few random chords; its index stream is almost
// sequential, so hardware prefetching covers it well (a prefetch-hostile
// case for software prefetching). Each vertex lists its successors in
// order, then the chords drawn from it in draw order.
func Ring(n, k int, chords int, weighted bool, seed int64) *Graph {
	if n == 0 {
		return empty(weighted)
	}
	rng := newSource(seed)
	ends := newBounded(rng, n)
	chord := make([]uint64, 2*chords) // (from, to) pairs
	g := &Graph{N: n, Offsets: make([]uint64, n+1)}
	for c := 0; c < len(chord); c += 2 {
		chord[c], chord[c+1] = ends.next(), ends.next()
		g.Offsets[chord[c]+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v] + uint64(k)
	}
	g.Edges = make([]uint64, g.Offsets[n])
	// Offsets[v+1] is v's insertion cursor: shifted to v's start here, it
	// ends at v's end, which is its value.
	copy(g.Offsets[1:], g.Offsets[:n])
	for v := 0; v < n; v++ {
		u := v
		for i := 0; i < k; i++ {
			if u++; u == n {
				u = 0
			}
			g.Edges[g.Offsets[v+1]] = uint64(u)
			g.Offsets[v+1]++
		}
	}
	for c := 0; c < len(chord); c += 2 {
		g.Edges[g.Offsets[chord[c]+1]] = chord[c+1]
		g.Offsets[chord[c]+1]++
	}
	return g.finish(weighted, rng)
}

// Kind labels the generator used for a catalogue input.
type Kind uint8

// Generator kinds.
const (
	KindUniform Kind = iota
	KindPowerLaw
	KindGrid
	KindRing
)

func (k Kind) String() string {
	switch k {
	case KindUniform:
		return "uniform"
	case KindPowerLaw:
		return "powerlaw"
	case KindGrid:
		return "grid"
	case KindRing:
		return "ring"
	}
	return "unknown"
}

// Input is a named catalogue entry: a recipe for a deterministic graph.
type Input struct {
	// Name identifies the input, echoing the flavour of SNAP dataset it
	// stands in for.
	Name string
	// Kind selects the generator.
	Kind Kind
	// N is the vertex count (for Grid, N = W*H).
	N int
	// Deg is the degree parameter; what it controls depends on Kind.
	// Uniform: each vertex gets Deg/2 + Intn(Deg+1) out-edges, a mean of
	// Deg (Deg-0.5 when Deg is odd). PowerLaw: out-degrees are 1 plus a
	// Zipf draw in [0, 4*Deg], so Deg scales the tail, and the mean comes
	// out well below Deg (2.2-6.2 across the catalogue's Deg 4-16). Ring:
	// the successor count K, plus N/64 random chords. Grid: unused (a
	// 4-neighbour mesh, mean just under 4).
	Deg int
	// Skew is the power-law skew (PowerLaw only).
	Skew float64
	// Seed makes generation deterministic.
	Seed int64
}

// Build generates the input's graph.
func (in Input) Build(weighted bool) *Graph {
	switch in.Kind {
	case KindUniform:
		return Uniform(in.N, in.Deg, weighted, in.Seed)
	case KindPowerLaw:
		return PowerLaw(in.N, in.Deg, in.Skew, weighted, in.Seed)
	case KindGrid:
		w := intSqrt(in.N)
		return Grid(w, in.N/w, weighted, in.Seed)
	case KindRing:
		return Ring(in.N, in.Deg, in.N/64, weighted, in.Seed)
	}
	panic("graphs: unknown kind")
}

func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Catalogue returns the named graph inputs used by the CRONO experiments.
// The paper evaluates 71 SNAP inputs; we stand in a structurally diverse set
// of 24 (documented as a substitution in DESIGN.md): sizes span inputs whose
// indirect working sets fit in the LLC (prefetch-hostile) through several
// times the LLC (prefetch-friendly), mean out-degrees span 2.2..24, and all
// four structural families are represented.
func Catalogue() []Input {
	ins := []Input{
		// Power-law social-network stand-ins.
		{Name: "soc-alpha", Kind: KindPowerLaw, N: 196608, Deg: 8, Skew: 0.6, Seed: 11},
		{Name: "soc-beta", Kind: KindPowerLaw, N: 262144, Deg: 6, Skew: 0.9, Seed: 12},
		{Name: "soc-gamma", Kind: KindPowerLaw, N: 131072, Deg: 12, Skew: 0.4, Seed: 13},
		{Name: "soc-delta", Kind: KindPowerLaw, N: 98304, Deg: 16, Skew: 0.7, Seed: 14},
		{Name: "wiki-talk-like", Kind: KindPowerLaw, N: 327680, Deg: 4, Skew: 1.0, Seed: 15},
		{Name: "cit-patents-like", Kind: KindPowerLaw, N: 229376, Deg: 10, Skew: 0.5, Seed: 16},
		// Uniform random stand-ins (AS-level topologies, email graphs).
		{Name: "as-skitter-like", Kind: KindUniform, N: 196608, Deg: 10, Seed: 21},
		{Name: "email-euall-like", Kind: KindUniform, N: 131072, Deg: 6, Seed: 22},
		{Name: "gowalla-like", Kind: KindUniform, N: 98304, Deg: 24, Seed: 23},
		{Name: "brightkite-like", Kind: KindUniform, N: 65536, Deg: 4, Seed: 24},
		{Name: "amazon-like", Kind: KindUniform, N: 262144, Deg: 5, Seed: 25},
		{Name: "ro-edges-like", Kind: KindUniform, N: 393216, Deg: 3, Seed: 26},
		// Road-network / mesh stand-ins.
		{Name: "roadnet-pa-like", Kind: KindGrid, N: 262144, Deg: 4, Seed: 31},
		{Name: "roadnet-tx-like", Kind: KindGrid, N: 147456, Deg: 4, Seed: 32},
		{Name: "roadnet-ca-like", Kind: KindGrid, N: 331776, Deg: 4, Seed: 33},
		// Sequential-friendly rings (hardware prefetcher territory).
		{Name: "ring-small", Kind: KindRing, N: 49152, Deg: 8, Seed: 41},
		{Name: "ring-large", Kind: KindRing, N: 262144, Deg: 6, Seed: 42},
		// LLC-resident inputs where prefetching mostly adds overhead.
		{Name: "p2p-gnutella-like", Kind: KindUniform, N: 16384, Deg: 8, Seed: 51},
		{Name: "ca-hepph-like", Kind: KindPowerLaw, N: 12288, Deg: 16, Skew: 0.5, Seed: 52},
		{Name: "as20000102-like", Kind: KindUniform, N: 8192, Deg: 4, Seed: 53},
		{Name: "oregon-like", Kind: KindUniform, N: 24576, Deg: 6, Seed: 54},
		{Name: "bitcoinalpha-like", Kind: KindPowerLaw, N: 20480, Deg: 10, Skew: 0.8, Seed: 55},
		// Borderline working sets (microarchitecture-dependent behaviour:
		// they fit Cascade Lake's LLC but not Haswell's).
		{Name: "border-a", Kind: KindUniform, N: 24576, Deg: 8, Seed: 61},
		{Name: "border-b", Kind: KindPowerLaw, N: 28672, Deg: 8, Skew: 0.6, Seed: 62},
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].Name < ins[j].Name })
	return ins
}

// SyntheticCatalogue returns the APT-GET-style synthetic inputs, the only
// ones bc runs on (§4.2).
func SyntheticCatalogue() []Input {
	return []Input{
		{Name: "synth-u1", Kind: KindUniform, N: 131072, Deg: 8, Seed: 71},
		{Name: "synth-u2", Kind: KindUniform, N: 196608, Deg: 12, Seed: 72},
		{Name: "synth-p1", Kind: KindPowerLaw, N: 163840, Deg: 8, Skew: 0.6, Seed: 73},
		{Name: "synth-p2", Kind: KindPowerLaw, N: 98304, Deg: 16, Skew: 0.8, Seed: 74},
		{Name: "synth-g1", Kind: KindGrid, N: 147456, Deg: 4, Seed: 75},
		{Name: "synth-small", Kind: KindUniform, N: 12288, Deg: 8, Seed: 76},
	}
}

// FindInput looks up a catalogue input by name across both catalogues.
func FindInput(name string) (Input, bool) {
	for _, in := range Catalogue() {
		if in.Name == name {
			return in, true
		}
	}
	for _, in := range SyntheticCatalogue() {
		if in.Name == name {
			return in, true
		}
	}
	return Input{}, false
}
