// Package storetest is the store.Store conformance suite: the table of
// semantic tests every implementation — Memory, the remote client over a
// store daemon, and the ladder-only Sharded — must pass identically. The
// contract under test is the one internal/store documents: lookups consume
// bounded reuse budget, staleness evicts, generation guards make
// Invalidate/Refund no-ops against superseded entries, frozen stores serve
// without consuming, and Export/Import round-trips between implementations.
//
// Implementations import this package from their tests and call Run with
// a factory; the suite stays in one place so a networked backend cannot
// drift from the in-process semantics without a test saying so.
package storetest

import (
	"fmt"
	"reflect"
	"testing"

	"rpg2/internal/store"
)

// Factory builds a fresh, empty store under test with the given reuse
// config. Each subtest calls it once; stores are never shared between
// subtests.
type Factory func(t *testing.T, cfg store.Config) store.Store

// Run exercises the full store-semantics contract against stores built by
// the factory.
func Run(t *testing.T, newStore Factory) {
	t.Run("HitMissCounting", func(t *testing.T) {
		s := newStore(t, store.Config{})
		k := store.Key{Bench: "pr", Input: "uni", Machine: "clx"}
		if _, _, ok := s.Lookup(k); ok {
			t.Fatal("lookup on empty store hit")
		}
		s.Commit(k, store.Entry{Func: "kernel", Distance: 12})
		if e, _, ok := s.Lookup(k); !ok || e.Distance != 12 {
			t.Fatalf("lookup after commit = %+v, %v", e, ok)
		}
		c := s.Counters()
		if c.Hits != 1 || c.Misses != 1 || c.Commits != 1 {
			t.Fatalf("counters = %+v, want 1 hit, 1 miss, 1 commit", c)
		}
	})

	t.Run("StalenessEvicts", func(t *testing.T) {
		s := newStore(t, store.Config{MaxReuse: 2})
		k := store.Key{Bench: "bfs", Input: "rmat", Machine: "clx"}
		s.Commit(k, store.Entry{Distance: 8})
		for i := 0; i < 2; i++ {
			if _, _, ok := s.Lookup(k); !ok {
				t.Fatalf("lookup %d missed before budget ran out", i)
			}
		}
		if _, _, ok := s.Lookup(k); ok {
			t.Fatal("stale entry served past MaxReuse")
		}
		c := s.Counters()
		if c.Stale != 1 || s.Len() != 0 {
			t.Fatalf("stale = %d, len = %d; want eviction", c.Stale, s.Len())
		}
	})

	t.Run("InvalidateGenerationGuard", func(t *testing.T) {
		s := newStore(t, store.Config{})
		k := store.Key{Bench: "sssp", Input: "uni", Machine: "hsw"}
		gen := s.Commit(k, store.Entry{Distance: 4})
		// A fresher commit supersedes gen: the old invalidation must no-op.
		s.Commit(k, store.Entry{Distance: 6})
		if s.Invalidate(k, gen) {
			t.Fatal("stale-generation invalidate dropped a fresher entry")
		}
		if e, gen2, ok := s.Lookup(k); !ok || e.Distance != 6 {
			t.Fatalf("entry lost: %+v, %v", e, ok)
		} else if !s.Invalidate(k, gen2) {
			t.Fatal("current-generation invalidate refused")
		}
		if s.Len() != 0 {
			t.Fatal("invalidate left the entry")
		}
	})

	t.Run("RefundGuards", func(t *testing.T) {
		s := newStore(t, store.Config{MaxReuse: 2})
		k := store.Key{Bench: "bc", Input: "synth", Machine: "clx"}
		s.Commit(k, store.Entry{Distance: 3})
		_, gen, _ := s.Lookup(k)
		if !s.Refund(k, gen) {
			t.Fatal("refund of a consumed charge refused")
		}
		if s.Refund(k, gen+1) {
			t.Fatal("refund against a wrong generation accepted")
		}
		if s.Refund(k, gen) {
			t.Fatal("refund with zero consumed charges accepted")
		}
		if s.Counters().Refunds != 1 {
			t.Fatalf("refunds = %d, want 1", s.Counters().Refunds)
		}
	})

	t.Run("TranslatedLookup", func(t *testing.T) {
		s := newStore(t, store.Config{})
		src := store.Key{Bench: "pr", Input: "uni", Machine: "haswell"}
		dst := store.Key{Bench: "pr", Input: "uni", Machine: "cascadelake"}
		s.Commit(src, store.Entry{Distance: 16})
		e, from, _, ok := s.LookupTranslated(dst)
		if !ok || from != src || e.Distance != 16 {
			t.Fatalf("translated lookup = %+v from %+v, ok %v", e, from, ok)
		}
		c := s.Counters()
		if c.Translations != 1 || c.Hits != 0 {
			t.Fatalf("counters = %+v, want 1 translation and 0 hits", c)
		}
	})

	t.Run("FrozenServesWithoutConsuming", func(t *testing.T) {
		s := newStore(t, store.Config{MaxReuse: 1})
		k := store.Key{Bench: "pr", Input: "uni", Machine: "clx"}
		s.Commit(k, store.Entry{Distance: 9})
		s.Freeze()
		for i := 0; i < 5; i++ {
			if _, _, ok := s.Lookup(k); !ok {
				t.Fatalf("frozen lookup %d missed", i)
			}
		}
		if s.Commit(k, store.Entry{Distance: 1}) != 0 {
			t.Fatal("frozen commit succeeded")
		}
		s.Thaw()
		if _, _, ok := s.Lookup(k); !ok {
			t.Fatal("thawed store lost the entry (frozen lookups consumed budget)")
		}
	})

	t.Run("ExportImportRoundTrip", func(t *testing.T) {
		src := newStore(t, store.Config{})
		for i := 0; i < 32; i++ {
			k := store.Key{Bench: fmt.Sprintf("b%d", i%7), Input: fmt.Sprintf("in%d", i%5), Machine: fmt.Sprintf("m%d", i%3)}
			src.Commit(k, store.Entry{Distance: i + 1, Func: "f"})
		}
		exported := src.Export()
		for _, dst := range []store.Store{store.NewMemory(store.Config{}), store.NewSharded(store.Config{}, 8)} {
			dst.Import(exported)
			if got := dst.Export(); !reflect.DeepEqual(got, exported) {
				t.Fatalf("round trip through %T changed the export", dst)
			}
		}
		// And back into a fresh store of the implementation under test.
		dst := newStore(t, store.Config{})
		dst.Import(exported)
		if got := dst.Export(); !reflect.DeepEqual(got, exported) {
			t.Fatal("import into the implementation under test changed the export")
		}
		if dst.Len() != len(exported) {
			t.Fatalf("Len = %d after importing %d entries", dst.Len(), len(exported))
		}
	})
}
