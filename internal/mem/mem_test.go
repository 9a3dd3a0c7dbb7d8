package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocLeavesGuardGaps(t *testing.T) {
	as := NewAddrSpace()
	a := as.Alloc("a", 100)
	b := as.Alloc("b", 50)
	if a.Base == 0 {
		t.Fatal("address 0 must never be mapped")
	}
	if b.Base < a.End()+GuardGap {
		t.Fatalf("no guard gap: a ends at %d, b starts at %d", a.End(), b.Base)
	}
	// The gap faults.
	if _, ok := as.Read(a.End() + 1); ok {
		t.Fatal("guard gap readable")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := NewAddrSpace()
	s := as.Alloc("s", 16)
	for i := Addr(0); i < 16; i++ {
		if !as.Write(s.Base+i, uint64(i*i)) {
			t.Fatalf("write %d failed", i)
		}
	}
	for i := Addr(0); i < 16; i++ {
		v, ok := as.Read(s.Base + i)
		if !ok || v != uint64(i*i) {
			t.Fatalf("read %d = %d, %v", i, v, ok)
		}
	}
}

func TestMapSharesBacking(t *testing.T) {
	as := NewAddrSpace()
	data := []uint64{1, 2, 3}
	s := as.Map("d", data)
	data[1] = 99
	if v, _ := as.Read(s.Base + 1); v != 99 {
		t.Fatal("Map must share the backing slice")
	}
	as.Write(s.Base+2, 7)
	if data[2] != 7 {
		t.Fatal("writes must reach the backing slice")
	}
}

func TestMapAtRejectsOverlap(t *testing.T) {
	as := NewAddrSpace()
	if _, err := as.MapAt("x", 1000, make([]uint64, 100)); err != nil {
		t.Fatalf("MapAt: %v", err)
	}
	if _, err := as.MapAt("y", 1050, make([]uint64, 10)); err == nil {
		t.Fatal("overlap not rejected")
	}
	if _, err := as.MapAt("z", 1100, make([]uint64, 10)); err != nil {
		t.Fatalf("adjacent non-overlapping map rejected: %v", err)
	}
}

func TestSegmentLookup(t *testing.T) {
	as := NewAddrSpace()
	as.Alloc("first", 10)
	s2 := as.Alloc("second", 10)
	if got := as.Segment("second"); got != s2 {
		t.Fatal("Segment by name failed")
	}
	if as.Segment("nope") != nil {
		t.Fatal("missing segment should be nil")
	}
	if got := as.Lookup(s2.Base + 5); got != s2 {
		t.Fatal("Lookup failed")
	}
	if as.Lookup(0) != nil {
		t.Fatal("address 0 must be unmapped")
	}
	if len(as.Segments()) != 2 {
		t.Fatalf("Segments() = %d, want 2", len(as.Segments()))
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x40, Write: true}
	if f.Error() == "" || (&Fault{Addr: 1}).Error() == "" {
		t.Fatal("fault errors must describe themselves")
	}
}

// Property: any address inside a mapped segment reads successfully, any
// address in the guard gap after it faults.
func TestMappedBoundaryProperty(t *testing.T) {
	as := NewAddrSpace()
	seg := as.Alloc("p", 977)
	f := func(off uint32) bool {
		inside := seg.Base + Addr(off)%Addr(len(seg.Data))
		outside := seg.End() + Addr(off)%GuardGap
		_, okIn := as.Read(inside)
		_, okOut := as.Read(outside)
		return okIn && !okOut
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// layoutFromBytes builds an address space from a byte string, three bytes an
// operation: Alloc, Map, or a MapAt whose base is aimed at an existing page
// (so segments share pages), at page edges, or far past the index.
func layoutFromBytes(ops []byte) *AddrSpace {
	as := NewAddrSpace()
	for ; len(ops) >= 3; ops = ops[3:] {
		kind, x, y := ops[0]%6, uint64(ops[1]), uint64(ops[2])
		size := int(y) * int(x%5) * 37 // 0 for a fifth of the draws
		switch kind {
		case 0:
			as.Alloc("a", size)
		case 1:
			as.Map("m", make([]uint64, size))
		case 2: // low addresses, several to a page, address 0 included
			as.MapAt("lo", x*16, make([]uint64, y%40))
		case 3: // straddling a page edge
			as.MapAt("edge", (x%8+1)<<pageShift-y%7, make([]uint64, y))
		case 4: // inside the gap after the last mapping, or on top of it
			as.MapAt("gap", as.next-x*40, make([]uint64, y))
		case 5: // beyond what the index covers
			as.MapAt("far", maxIndexPages<<pageShift-128+x, make([]uint64, y))
		}
	}
	return as
}

// checkLookup holds Lookup, Mapped, Prefetch, Read and Write to the linear
// scan at a. Prefetch touches host memory only where the scan finds a word,
// so on unmapped, guard-gap and ambiguous-page addresses it must return
// false without faulting.
func checkLookup(t *testing.T, as *AddrSpace, a Addr) {
	t.Helper()
	want := as.scan(a)
	got := as.Lookup(a)
	if got == unmapped || got == ambiguous {
		t.Fatalf("Lookup(%#x) returned an index sentinel", a)
	}
	if got != want {
		t.Fatalf("Lookup(%#x) = %v, scan says %v", a, got, want)
	}
	v, ok := as.Read(a)
	if ok != (want != nil) || as.Mapped(a) != ok || as.Prefetch(a) != ok {
		t.Fatalf("Read/Mapped/Prefetch(%#x) = %v/%v/%v, scan says %v", a, ok, as.Mapped(a), as.Prefetch(a), want)
	}
	if ok && v != want.Data[a-want.Base] {
		t.Fatalf("Read(%#x) = %d, want %d", a, v, want.Data[a-want.Base])
	}
	// Write lands in the scanned segment's word, and fails where the scan
	// finds nothing; the word is put back so later probes read the layout.
	if w := as.Write(a, ^v); w != ok {
		t.Fatalf("Write(%#x) = %v, scan says %v", a, w, want)
	}
	if ok {
		if got := want.Data[a-want.Base]; got != ^v {
			t.Fatalf("Write(%#x, %d) left %d in segment %q", a, ^v, got, want.Name)
		}
		want.Data[a-want.Base] = v
	}
}

// checkLayout probes every segment's edges, address 0, the pages around the
// end of the index and the top of the address range, then the given probe.
func checkLayout(t *testing.T, as *AddrSpace, probe Addr) {
	t.Helper()
	for i, s := range as.Segments() {
		for j := range s.Data {
			s.Data[j] = uint64(i)<<32 | uint64(j)
		}
	}
	end := Addr(len(as.pages)) << pageShift
	probes := []Addr{0, 1, end - 1, end, end + 1, end + 1<<pageShift, as.next, ^Addr(0), probe, probe % (as.next + 1)}
	for _, s := range as.Segments() {
		probes = append(probes, s.Base-1, s.Base, s.Base+Addr(len(s.Data))/2, s.End()-1, s.End())
	}
	for _, a := range probes {
		checkLookup(t, as, a)
	}
}

var lookupSeeds = [][]byte{
	{},
	{0, 1, 100, 0, 2, 200, 1, 3, 50},               // Alloc/Map only
	{2, 10, 8, 2, 11, 8, 2, 0, 1},                  // two MapAt segments in one page, and address 0
	{0, 5, 9, 1, 1, 1, 0, 1, 7},                    // zero-length segments between real ones
	{3, 0, 5, 3, 1, 200, 4, 1, 30, 4, 0, 9},        // page-straddling and gap-filling MapAt
	{5, 0, 255, 5, 200, 100, 0, 1, 255},            // past the index cap
	{0, 4, 255, 0, 4, 255, 2, 255, 39, 4, 90, 255}, // multi-page segments
}

func TestLookupMatchesScanReference(t *testing.T) {
	for _, seed := range lookupSeeds {
		as := layoutFromBytes(seed)
		checkLayout(t, as, 0)
		// Every address up to a page past the last mapping, capped.
		for a := Addr(0); a < min(as.next+1<<pageShift, 1<<18); a++ {
			checkLookup(t, as, a)
		}
	}
}

func FuzzLookupMatchesScan(f *testing.F) {
	for _, seed := range lookupSeeds {
		f.Add(seed, uint64(4096))
	}
	f.Fuzz(func(t *testing.T, ops []byte, probe uint64) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		checkLayout(t, layoutFromBytes(ops), probe)
	})
}
