package graphs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// validate checks CSR invariants.
func validate(g *Graph) error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graphs: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != uint64(len(g.Edges)) {
		return fmt.Errorf("graphs: offsets endpoints [%d,%d], want [0,%d]", g.Offsets[0], g.Offsets[g.N], len(g.Edges))
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graphs: offsets not monotone at %d", v)
		}
	}
	for i, e := range g.Edges {
		if e >= uint64(g.N) {
			return fmt.Errorf("graphs: edge %d targets %d >= n=%d", i, e, g.N)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graphs: weights length %d, want %d", len(g.Weights), len(g.Edges))
	}
	if len(g.SrcOf) != len(g.Edges) {
		return fmt.Errorf("graphs: srcof length %d, want %d", len(g.SrcOf), len(g.Edges))
	}
	for i, s := range g.SrcOf {
		if s >= uint64(g.N) {
			return fmt.Errorf("graphs: srcof %d is %d >= n=%d", i, s, g.N)
		}
	}
	return nil
}

func TestGeneratorsProduceValidCSR(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"uniform", Uniform(500, 6, false, 1)},
		{"uniform-weighted", Uniform(300, 4, true, 2)},
		{"powerlaw", PowerLaw(500, 8, 0.7, false, 3)},
		{"grid", Grid(20, 25, false, 4)},
		{"ring", Ring(400, 3, 10, true, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := validate(tc.g); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if tc.g.M() == 0 {
				t.Fatal("no edges generated")
			}
		})
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a := PowerLaw(200, 6, 0.5, true, 42)
	b := PowerLaw(200, 6, 0.5, true, 42)
	if a.M() != b.M() {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := PowerLaw(200, 6, 0.5, true, 43)
	same := c.M() == a.M()
	if same {
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestSrcOfMatchesOffsets(t *testing.T) {
	g := Uniform(300, 5, false, 9)
	for v := 0; v < g.N; v++ {
		for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
			if g.SrcOf[e] != uint64(v) {
				t.Fatalf("SrcOf[%d] = %d, want %d", e, g.SrcOf[e], v)
			}
		}
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(4, 4, false, 1)
	if g.N != 16 {
		t.Fatalf("N = %d", g.N)
	}
	// Corner vertex 0 has exactly 2 neighbours; interior vertex 5 has 4.
	if d := g.Offsets[1] - g.Offsets[0]; d != 2 {
		t.Fatalf("corner degree = %d", d)
	}
	if d := g.Offsets[6] - g.Offsets[5]; d != 4 {
		t.Fatalf("interior degree = %d", d)
	}
}

func TestRingIsNearSequential(t *testing.T) {
	g := Ring(100, 2, 0, false, 1)
	// Every vertex links to its immediate successors.
	for v := 0; v < g.N; v++ {
		if g.Edges[g.Offsets[v]] != uint64((v+1)%g.N) {
			t.Fatalf("vertex %d first edge = %d", v, g.Edges[g.Offsets[v]])
		}
	}
}

func TestCatalogueEntriesResolveAndBuild(t *testing.T) {
	cat := Catalogue()
	if len(cat) < 20 {
		t.Fatalf("catalogue has %d inputs; the reproduction documents ~24", len(cat))
	}
	seen := map[string]bool{}
	for _, in := range cat {
		if seen[in.Name] {
			t.Fatalf("duplicate input name %q", in.Name)
		}
		seen[in.Name] = true
		got, ok := FindInput(in.Name)
		if !ok || got.Name != in.Name {
			t.Fatalf("FindInput(%q) failed", in.Name)
		}
	}
	// Membership in SyntheticCatalogue is what makes an input synthetic
	// (bc runs only on those, §4.2), so the two sets are disjoint.
	for _, in := range SyntheticCatalogue() {
		if seen[in.Name] {
			t.Fatalf("synthetic input %q is also in the SNAP-like catalogue", in.Name)
		}
		if _, ok := FindInput(in.Name); !ok {
			t.Fatalf("FindInput(%q) failed", in.Name)
		}
	}
	if _, ok := FindInput("definitely-not-real"); ok {
		t.Fatal("FindInput should reject unknown names")
	}
}

// TestCatalogueSizesSpanTheLLC checks the property the evaluation depends
// on: the catalogue must include inputs well below and well above the
// simulated LLC capacities (32768 words on Cascade Lake, 16384 on Haswell).
func TestCatalogueSizesSpanTheLLC(t *testing.T) {
	small, border, large := 0, 0, 0
	for _, in := range Catalogue() {
		switch {
		case in.N <= 16384:
			small++
		case in.N <= 32768:
			border++
		default:
			large++
		}
	}
	if small == 0 || border == 0 || large == 0 {
		t.Fatalf("catalogue lacks size diversity: %d small, %d border, %d large", small, border, large)
	}
}

func TestBuildSmallInputs(t *testing.T) {
	// Build the smaller catalogue entries end to end (the big ones are
	// exercised by the workload tests).
	for _, in := range Catalogue() {
		if in.N > 32768 {
			continue
		}
		g := in.Build(true)
		if err := validate(g); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if g.N != in.N {
			t.Fatalf("%s: N = %d, want %d", in.Name, g.N, in.N)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Uniform(50, 4, true, 1)
	bad := *g
	bad.Edges = append([]uint64(nil), g.Edges...)
	bad.Edges[0] = uint64(g.N + 5)
	if validate(&bad) == nil {
		t.Fatal("out-of-range edge not caught")
	}
	bad2 := *g
	bad2.Offsets = append([]uint64(nil), g.Offsets...)
	bad2.Offsets[1] = bad2.Offsets[2] + 1
	if validate(&bad2) == nil {
		t.Fatal("non-monotone offsets not caught")
	}
	bad3 := *g
	bad3.Weights = bad3.Weights[:1]
	if validate(&bad3) == nil {
		t.Fatal("weight length mismatch not caught")
	}
}

// Property: every generator keeps edge targets within [0, N).
func TestEdgeRangeProperty(t *testing.T) {
	f := func(seed int64, rawN, rawDeg uint8) bool {
		n := 50 + int(rawN)
		deg := 1 + int(rawDeg)%8
		g := Uniform(n, deg, false, seed)
		return validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindUniform, KindPowerLaw, KindGrid, KindRing} {
		if k.String() == "unknown" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

// The generators as they were when each built per-vertex adjacency lists
// and copied them out (refFromAdj) and drew with rand.Intn: the reference
// the one-pass generators must match array for array.

func refFromAdj(adj [][]uint64, weighted bool, rng *rand.Rand) *Graph {
	n := len(adj)
	g := &Graph{N: n, Offsets: make([]uint64, n+1)}
	m := 0
	for _, l := range adj {
		m += len(l)
	}
	g.Edges = make([]uint64, 0, m)
	g.SrcOf = make([]uint64, 0, m)
	if weighted {
		g.Weights = make([]uint64, 0, m)
	}
	for v, l := range adj {
		g.Offsets[v] = uint64(len(g.Edges))
		for _, e := range l {
			g.Edges = append(g.Edges, e)
			g.SrcOf = append(g.SrcOf, uint64(v))
			if weighted {
				g.Weights = append(g.Weights, uint64(1+rng.Intn(255)))
			}
		}
	}
	g.Offsets[n] = uint64(len(g.Edges))
	return g
}

func refUniform(n, avgDeg int, weighted bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint64, n)
	for v := range adj {
		deg := avgDeg/2 + rng.Intn(avgDeg+1)
		l := make([]uint64, deg)
		for i := range l {
			l[i] = uint64(rng.Intn(n))
		}
		adj[v] = l
	}
	return refFromAdj(adj, weighted, rng)
}

func refPowerLaw(n, avgDeg int, skew float64, weighted bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.0+skew, 1.0, uint64(4*avgDeg))
	adj := make([][]uint64, n)
	for v := range adj {
		deg := int(zipf.Uint64()) + 1
		l := make([]uint64, deg)
		for i := range l {
			if rng.Intn(3) == 0 {
				l[i] = uint64(rng.Intn(1 + n/16))
			} else {
				l[i] = uint64(rng.Intn(n))
			}
		}
		adj[v] = l
	}
	return refFromAdj(adj, weighted, rng)
}

func refGrid(w, h int, weighted bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := w * h
	adj := make([][]uint64, n)
	id := func(x, y int) uint64 { return uint64(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var l []uint64
			if x > 0 {
				l = append(l, id(x-1, y))
			}
			if x < w-1 {
				l = append(l, id(x+1, y))
			}
			if y > 0 {
				l = append(l, id(x, y-1))
			}
			if y < h-1 {
				l = append(l, id(x, y+1))
			}
			adj[id(x, y)] = l
		}
	}
	return refFromAdj(adj, weighted, rng)
}

func refRing(n, k int, chords int, weighted bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint64, n)
	for v := range adj {
		l := make([]uint64, 0, k+1)
		for i := 1; i <= k; i++ {
			l = append(l, uint64((v+i)%n))
		}
		adj[v] = l
	}
	for c := 0; c < chords; c++ {
		v := rng.Intn(n)
		adj[v] = append(adj[v], uint64(rng.Intn(n)))
	}
	return refFromAdj(adj, weighted, rng)
}

// refBuild is Input.Build over the reference generators.
func refBuild(in Input, weighted bool) *Graph {
	switch in.Kind {
	case KindUniform:
		return refUniform(in.N, in.Deg, weighted, in.Seed)
	case KindPowerLaw:
		return refPowerLaw(in.N, in.Deg, in.Skew, weighted, in.Seed)
	case KindGrid:
		w := intSqrt(in.N)
		return refGrid(w, in.N/w, weighted, in.Seed)
	case KindRing:
		return refRing(in.N, in.Deg, in.N/64, weighted, in.Seed)
	}
	panic("graphs: unknown kind")
}

// sameGraph fails t unless got equals the reference array for array, and
// got's arrays are exactly as long as their capacity: a generator that
// sized an array by a degree bound would keep the excess live.
func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, reference %d", name, got.N, want.N)
	}
	for _, a := range []struct {
		field     string
		got, want []uint64
	}{
		{"Offsets", got.Offsets, want.Offsets},
		{"Edges", got.Edges, want.Edges},
		{"SrcOf", got.SrcOf, want.SrcOf},
		{"Weights", got.Weights, want.Weights},
	} {
		if !slices.Equal(a.got, a.want) || (a.got == nil) != (a.want == nil) {
			t.Fatalf("%s: %s differs from the reference (len %d, reference %d)", name, a.field, len(a.got), len(a.want))
		}
		if cap(a.got) != len(a.got) {
			t.Fatalf("%s: %s has cap %d, len %d", name, a.field, cap(a.got), len(a.got))
		}
	}
}

func TestGeneratorsMatchReference(t *testing.T) {
	inputs := append(Catalogue(), SyntheticCatalogue()...)
	for _, in := range inputs {
		for _, weighted := range []bool{false, true} {
			sameGraph(t, in.Name, in.Build(weighted), refBuild(in, weighted))
		}
	}
	// Corners the catalogue does not reach: no vertices, no degree draw
	// to speak of, one-row and one-column grids, a ring whose k wraps past
	// n, a ring without chords.
	cases := []struct {
		name      string
		got, want *Graph
	}{
		{"uniform-n0", Uniform(0, 4, true, 1), refUniform(0, 4, true, 1)},
		{"powerlaw-n0", PowerLaw(0, 4, 0.5, false, 1), refPowerLaw(0, 4, 0.5, false, 1)},
		{"grid-w0", Grid(0, 3, true, 1), refGrid(0, 3, true, 1)},
		{"grid-h0", Grid(4, 0, false, 1), refGrid(4, 0, false, 1)},
		{"ring-n0", Ring(0, 3, 0, true, 1), refRing(0, 3, 0, true, 1)},
		{"uniform-deg0", Uniform(40, 0, true, 1), refUniform(40, 0, true, 1)},
		{"uniform-deg1", Uniform(40, 1, true, 2), refUniform(40, 1, true, 2)},
		{"uniform-n1", Uniform(1, 3, true, 3), refUniform(1, 3, true, 3)},
		{"powerlaw-pow2", PowerLaw(256, 4, 1.0, true, 4), refPowerLaw(256, 4, 1.0, true, 4)},
		{"grid-row", Grid(17, 1, true, 5), refGrid(17, 1, true, 5)},
		{"grid-column", Grid(1, 9, true, 6), refGrid(1, 9, true, 6)},
		{"grid-point", Grid(1, 1, true, 7), refGrid(1, 1, true, 7)},
		{"ring-wrap", Ring(5, 12, 7, true, 8), refRing(5, 12, 7, true, 8)},
		{"ring-nochords", Ring(64, 3, 0, true, 9), refRing(64, 3, 0, true, 9)},
	}
	for _, tc := range cases {
		sameGraph(t, tc.name, tc.got, tc.want)
	}
}

func TestSourceMatchesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		ref := rand.NewSource(seed).(rand.Source64)
		s := newSource(seed)
		// Three laps of the ring: the replayed outputs, then the
		// recurrence, then the recurrence over its own outputs.
		for i := 0; i < 3*srcLen; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, rand.NewSource %#x", seed, i, got, want)
			}
		}
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 %d, rand.NewSource %d", seed, got, want)
		}
	}
}

// FuzzBoundedMatchesIntn checks bounded over source against rand.Intn over
// rand.NewSource: the same values from the same draws, rejections included.
func FuzzBoundedMatchesIntn(f *testing.F) {
	for _, n := range []int64{1, 3, 255, 256, 98304, 1<<30 + 1, 1<<31 - 1} {
		f.Add(int64(1), n)
	}
	f.Fuzz(func(t *testing.T, seed, n int64) {
		// Fold n into [1, 2^31-1], keeping every in-range value.
		n &= 1<<31 - 1
		if n == 0 {
			n = 1
		}
		ref := rand.New(rand.NewSource(seed))
		rng := newSource(seed)
		b := newBounded(rng, int(n))
		for i := 0; i < 300; i++ {
			if got, want := b.next(), uint64(ref.Intn(int(n))); got != want {
				t.Fatalf("n=%d draw %d: bounded %d, Intn %d", n, i, got, want)
			}
		}
		for i := 0; i < srcLen; i++ {
			if rng.Int63() != ref.Int63() {
				t.Fatalf("n=%d: the sources drifted apart", n)
			}
		}
	})
}
