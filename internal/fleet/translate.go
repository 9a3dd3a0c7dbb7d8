// Profile translation: the cross-machine seeding tier between a warm hit
// and a cold miss. The store deliberately keys on (bench, input, machine)
// because a distance tuned on one microarchitecture transplants badly to
// another (the paper's Figure 3) — but transplanting *badly* still beats
// starting from a random distance, provided the transplant is validated.
// The first-order reason a tuned distance does not carry across machines
// is that the useful distance scales with how many loop iterations of work
// are needed to hide one memory access: scale the distance by the ratio of
// the machines' effective memory latencies and the sibling profile becomes
// a usable hypothesis, which the full-span search then confirms or walks
// away from.

package fleet

import (
	"math"

	"rpg2/internal/machine"
	"rpg2/internal/rpg2"
)

// TranslateDistance scales a prefetch distance tuned on machine src into a
// starting hypothesis for machine dst: the distance grows with the target's
// effective memory latency (machine.MemLatency — DRAM fill plus the L3
// lookup preceding it), is rounded to the nearest integer, and is clamped
// to the controller's search range [1, rpg2.MaxDistance]. A non-positive
// input distance or latency falls back to clamping alone.
func TranslateDistance(src, dst machine.Machine, d int) int {
	srcLat, dstLat := src.MemLatency(), dst.MemLatency()
	if d > 0 && srcLat > 0 && dstLat > 0 {
		d = int(math.Round(float64(d) * float64(dstLat) / float64(srcLat)))
	}
	if d < 1 {
		d = 1
	}
	if d > rpg2.MaxDistance {
		d = rpg2.MaxDistance
	}
	return d
}
