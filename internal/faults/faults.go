// Package faults is a seeded, deterministic fault injector for the fleet's
// resilience machinery. The RPG² controller exposes three injection
// boundaries — profile collection, the BOLT rewrite, and runtime code
// insertion (OSR) — and an Injector decides, purely from (injector seed,
// session seed, attempt, stage), whether each boundary fails. The decision
// is a hash, not a shared RNG stream, so it is independent of worker count
// and scheduling order: the same specs fail the same way no matter how the
// fleet interleaves them, which is what makes retry and circuit-breaker
// behaviour testable at all.
package faults

import (
	"errors"
	"fmt"
)

// Stage names one controller boundary the injector can fail.
type Stage string

// The three injection boundaries, in controller phase order.
const (
	// StageProfile fails at the end of PEBS sample collection.
	StageProfile Stage = "profile"
	// StageRewrite fails the background BOLT InjectPrefetchPass.
	StageRewrite Stage = "rewrite"
	// StageOSR fails runtime code insertion / on-stack replacement.
	StageOSR Stage = "osr"
)

// stageIndex gives each stage a stable hash discriminator.
func stageIndex(s Stage) uint64 {
	switch s {
	case StageProfile:
		return 1
	case StageRewrite:
		return 2
	case StageOSR:
		return 3
	}
	return 0
}

// Error is an injected fault. It is a distinct type so the fleet can tell
// injected failures from organic ones (build errors, crashed targets) when
// deciding what a retry is worth.
type Error struct {
	Stage   Stage
	Seed    int64
	Attempt int
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s fault (session seed %d, attempt %d)",
		e.Stage, e.Seed, e.Attempt)
}

// Injected reports whether err is (or wraps) an injected fault.
func Injected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Config tunes an Injector.
type Config struct {
	// Seed drives every injection decision; two injectors with the same
	// Seed and Rate make identical decisions.
	Seed int64
	// Rate is the failure probability applied to every stage (0 = never,
	// 1 = always).
	Rate float64
}

// Injector makes deterministic per-(session, attempt, stage) failure
// decisions. It is safe for concurrent use.
type Injector struct {
	cfg Config
}

// New builds an injector.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// splitmix64's finalizer: a cheap, well-mixed avalanche step.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hash01 folds the parts into a uniform value in [0, 1).
func hash01(parts ...uint64) float64 {
	h := uint64(0x8A5CD789635D2DFF)
	for _, p := range parts {
		h = mix(h ^ p)
	}
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Hash01 is the package's determinism contract as a public primitive: it
// folds the parts into a uniform value in [0, 1) with no hidden state, so
// other layers (client retry jitter, for one) can derive per-event noise
// that replays identically across runs and worker counts.
func Hash01(parts ...uint64) float64 { return hash01(parts...) }

// KeyHash folds a string into a hash discriminator (FNV-1a) for use as a
// Hash01 part. Disk and network injectors key decisions by path or route
// strings; this keeps those keys inside the same integer-hash contract.
func KeyHash(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

// Check decides whether the given stage fails for one session attempt,
// returning the injected *Error or nil. The decision depends only on the
// injector seed, the rate, and the arguments.
func (i *Injector) Check(stage Stage, sessionSeed int64, attempt int) error {
	r := i.cfg.Rate
	if r <= 0 {
		return nil
	}
	if r < 1 && hash01(uint64(i.cfg.Seed), uint64(sessionSeed), uint64(attempt), stageIndex(stage)) >= r {
		return nil
	}
	return &Error{Stage: stage, Seed: sessionSeed, Attempt: attempt}
}

// Hook binds the injector to one session attempt in the shape the
// controller's Config.FaultHook expects.
func (i *Injector) Hook(sessionSeed int64, attempt int) func(stage string) error {
	return func(stage string) error {
		return i.Check(Stage(stage), sessionSeed, attempt)
	}
}
