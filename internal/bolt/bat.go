// Package bolt reproduces the role Meta's BOLT binary optimizer plays in
// RPG²: lifting a function from a binary, running the paper's new
// InjectPrefetchPass over it (loop analysis, backward slicing, prefetch
// kernel generation), and emitting the rewritten code together with a BOLT
// Address Translation table (BAT) that maps program counters between the
// original function f0 and the optimized version f1. The BAT is what makes
// on-stack replacement and rollback possible (§3.3.1, §3.4.1).
package bolt

// BAT is the address translation table between an original function f0 and
// its rewritten version f1. f0 PCs are absolute (indices into the binary's
// text); f1 PCs are offsets relative to the start of the rewritten code
// until Rebase fixes a load address.
//
// Instructions belonging to an injected prefetch kernel have no f0
// counterpart and therefore no reverse entry — exactly the corner case that
// forces RPG² to single-step a thread out of a kernel during rollback.
type BAT struct {
	// ToF1 maps an f0 PC to the offset of the same instruction in f1.
	ToF1 map[int]int
	// ToF0 maps an f1 offset back to its f0 PC.
	ToF0 map[int]int
}

// NewBAT returns an empty table.
func NewBAT() *BAT {
	return &BAT{ToF1: make(map[int]int), ToF0: make(map[int]int)}
}

func (b *BAT) add(f0PC, f1Off int) {
	b.ToF1[f0PC] = f1Off
	b.ToF0[f1Off] = f0PC
}

// Translate maps an f0 PC to an f1 offset.
func (b *BAT) Translate(f0PC int) (int, bool) {
	off, ok := b.ToF1[f0PC]
	return off, ok
}

// Live returns the live address, in an f1 loaded at f1Entry, of each of
// f0PCs that f1 holds, in order. A work watch over f0PCs plus Live(f0PCs)
// counts the same instructions whichever version runs.
func (b *BAT) Live(f1Entry int, f0PCs []int) []int {
	var out []int
	for _, pc := range f0PCs {
		if off, ok := b.ToF1[pc]; ok {
			out = append(out, f1Entry+off)
		}
	}
	return out
}

// TranslateBack maps an f1 offset to an f0 PC. It returns false for offsets
// inside an injected kernel.
func (b *BAT) TranslateBack(f1Off int) (int, bool) {
	pc, ok := b.ToF0[f1Off]
	return pc, ok
}
