// Package mem models a process address space for the simulated machine.
//
// Memory is word addressed: one address unit names one 64-bit word, and a
// cache line covers isa.LineWords consecutive words. An address space is a
// small set of mapped segments separated by unmapped guard gaps, so demand
// accesses past the end of an array fault exactly like touching an unmapped
// page would — which is what RPG²'s prefetch-kernel bounds check exists to
// prevent (§3.2.3 of the paper).
package mem

import (
	"fmt"
	"sort"
)

// Addr is a word address in the simulated address space.
type Addr = uint64

// Fault describes an access to unmapped memory. The CPU turns a Fault on a
// demand access into a process crash; prefetches to unmapped addresses are
// silently dropped, matching hardware prefetch semantics.
type Fault struct {
	Addr  Addr
	Write bool
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: %s fault at %#x (unmapped)", kind, f.Addr)
}

// Segment is a contiguous mapped region backed by a Go slice. The backing
// slice is shared, not copied, so workload generators can build data
// structures with ordinary Go code and map them in.
type Segment struct {
	Name string
	Base Addr
	Data []uint64
}

// End returns one past the last mapped address of the segment.
func (s *Segment) End() Addr { return s.Base + Addr(len(s.Data)) }

// Contains reports whether the address lies inside the segment.
func (s *Segment) Contains(a Addr) bool { return a >= s.Base && a < s.End() }

// GuardGap is the default unmapped gap left between consecutively allocated
// segments, in words. It is larger than any plausible prefetch overshoot so
// an unguarded out-of-bounds kernel load reliably faults.
const GuardGap = 4096

const (
	// pageShift sizes the lookup index's pages: no larger than GuardGap,
	// so segments placed by Alloc and Map never share one.
	pageShift = 12
	// maxIndexPages bounds the index (8 bytes a page); a segment MapAt
	// places beyond it is found by the scan.
	maxIndexPages = 1 << 20
)

// ambiguous marks an index page that more than one segment overlaps, and
// unmapped one that none does. Neither contains an address, so a page's one
// segment can be tested without first testing for them.
var ambiguous, unmapped = new(Segment), new(Segment)

// AddrSpace is a process's data address space: an ordered set of segments.
type AddrSpace struct {
	segs []*Segment
	next Addr
	// pages maps addr>>pageShift to the one segment overlapping that
	// page, unmapped when there is none and ambiguous when MapAt put
	// several there. It is built from each segment's length at map time.
	pages []*Segment
}

// NewAddrSpace returns an empty address space. Address 0 is never mapped, so
// null dereferences always fault.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{next: GuardGap}
}

// Alloc maps a fresh zero-filled segment of the given size after the last
// mapping, separated by a guard gap, and returns it.
func (as *AddrSpace) Alloc(name string, size int) *Segment {
	return as.Map(name, make([]uint64, size))
}

// Map maps the given backing slice as a new segment after the last mapping,
// separated by a guard gap, and returns it.
func (as *AddrSpace) Map(name string, data []uint64) *Segment {
	s := &Segment{Name: name, Base: as.next, Data: data}
	as.segs = append(as.segs, s)
	as.next = s.End() + GuardGap
	as.index(s)
	return s
}

// MapAt maps a segment at a caller-chosen base address. It returns an error
// if the region overlaps an existing segment.
func (as *AddrSpace) MapAt(name string, base Addr, data []uint64) (*Segment, error) {
	s := &Segment{Name: name, Base: base, Data: data}
	for _, o := range as.segs {
		if s.Base < o.End() && o.Base < s.End() {
			return nil, fmt.Errorf("mem: segment %q [%#x,%#x) overlaps %q", name, s.Base, s.End(), o.Name)
		}
	}
	as.segs = append(as.segs, s)
	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	if s.End()+GuardGap > as.next {
		as.next = s.End() + GuardGap
	}
	as.index(s)
	return s, nil
}

// index enters the segment into every index page it overlaps.
func (as *AddrSpace) index(s *Segment) {
	if len(s.Data) == 0 {
		return
	}
	first, last := s.Base>>pageShift, min((s.End()-1)>>pageShift, maxIndexPages-1)
	if first > last {
		return
	}
	if n := int(last) + 1; n > len(as.pages) {
		old := len(as.pages)
		as.pages = append(as.pages, make([]*Segment, n-old)...)
		for p := old; p < n; p++ {
			as.pages[p] = unmapped
		}
	}
	for p := first; p <= last; p++ {
		if as.pages[p] == unmapped {
			as.pages[p] = s
		} else {
			as.pages[p] = ambiguous
		}
	}
}

// Lookup returns the segment containing the address, or nil.
func (as *AddrSpace) Lookup(a Addr) *Segment {
	if p := a >> pageShift; p < uint64(len(as.pages)) {
		s := as.pages[p]
		if s.Contains(a) {
			return s
		}
		if s != ambiguous {
			return nil
		}
	}
	return as.scan(a)
}

// scan is the linear lookup: the fallback for ambiguous pages and for
// addresses past the index, and the reference the index is tested against.
func (as *AddrSpace) scan(a Addr) *Segment {
	for _, s := range as.segs {
		if s.Contains(a) {
			return s
		}
	}
	return nil
}

// Mapped reports whether the address is mapped.
func (as *AddrSpace) Mapped(a Addr) bool { return as.Lookup(a) != nil }

// Prefetch reports whether the address is mapped and, if it is, asks the
// host to bring the line backing its word into the host's cache, so a later
// Read or Write of it does not wait on host memory. Nothing it does is
// visible to the simulated machine, and an unmapped address is not touched.
func (as *AddrSpace) Prefetch(a Addr) bool {
	if w := as.word(a); w != nil {
		HostPrefetch(w)
		return true
	}
	return false
}

// word returns the address's word, or nil if unmapped. The common case,
// an address the one segment of its index page holds, is settled here;
// Lookup decides the rest (unmapped and ambiguous pages, and addresses
// past the index).
func (as *AddrSpace) word(a Addr) *uint64 {
	if p := a >> pageShift; p < uint64(len(as.pages)) {
		s := as.pages[p]
		if i := a - s.Base; i < uint64(len(s.Data)) {
			return &s.Data[i]
		}
	}
	if s := as.Lookup(a); s != nil {
		return &s.Data[a-s.Base]
	}
	return nil
}

// Read returns the word at the address, or false if unmapped.
func (as *AddrSpace) Read(a Addr) (uint64, bool) {
	if w := as.word(a); w != nil {
		return *w, true
	}
	return 0, false
}

// Write stores a word at the address; it reports false if unmapped.
func (as *AddrSpace) Write(a Addr, v uint64) bool {
	if w := as.word(a); w != nil {
		*w = v
		return true
	}
	return false
}

// Segments returns the mapped segments in address order.
func (as *AddrSpace) Segments() []*Segment { return as.segs }

// Segment returns the named segment, or nil.
func (as *AddrSpace) Segment(name string) *Segment {
	for _, s := range as.segs {
		if s.Name == name {
			return s
		}
	}
	return nil
}
