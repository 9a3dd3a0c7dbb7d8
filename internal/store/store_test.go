package store_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rpg2/internal/store"
	"rpg2/internal/store/storetest"
)

type (
	Key      = store.Key
	Entry    = store.Entry
	Config   = store.Config
	Counters = store.Counters
)

// The semantic contract lives in storetest; both in-process
// implementations must pass it identically (the remote backend runs the
// same suite from its own package).
func TestMemoryConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T, cfg Config) store.Store {
		return store.NewMemory(cfg)
	})
}

func TestShardedConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T, cfg Config) store.Store {
		return store.NewSharded(cfg, 8)
	})
}

// TestShardRoutingInvariant: the shard key excludes Machine, so every
// machine-axis sibling of one (bench, input) pair is co-resident — the
// invariant that keeps translation lookups single-shard.
func TestShardRoutingInvariant(t *testing.T) {
	for i := 0; i < 50; i++ {
		bench, input := fmt.Sprintf("bench%d", i), fmt.Sprintf("input%d", i*3)
		home := store.ShardIndex(Key{Bench: bench, Input: input, Machine: "machine0"}, 8)
		for m := 1; m < 6; m++ {
			k := Key{Bench: bench, Input: input, Machine: fmt.Sprintf("machine%d", m)}
			if got := store.ShardIndex(k, 8); got != home {
				t.Fatalf("siblings split across shards: %+v on %d, machine0 on %d", k, got, home)
			}
		}
	}
	// And distinct (bench, input) pairs do spread: a constant hash would
	// satisfy the invariant vacuously.
	used := make(map[int]bool)
	for i := 0; i < 64; i++ {
		used[store.ShardIndex(Key{Bench: fmt.Sprintf("b%d", i), Input: "x"}, 8)] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 distinct pairs all routed to one shard")
	}
}

// TestTranslationNeverCrossesShards: sibling keys route to one shard, so a
// translated lookup finds its sibling there and the store counts exactly
// that one serve.
func TestTranslationNeverCrossesShards(t *testing.T) {
	s := store.NewSharded(Config{}, 8)
	src := Key{Bench: "pr", Input: "uni", Machine: "haswell"}
	dst := Key{Bench: "pr", Input: "uni", Machine: "cascadelake"}
	if a, b := store.ShardIndex(src, 8), store.ShardIndex(dst, 8); a != b {
		t.Fatalf("sibling keys routed to shards %d and %d", a, b)
	}
	s.Commit(src, Entry{Distance: 16})
	e, from, _, ok := s.LookupTranslated(dst)
	if !ok || from != src || e.Distance != 16 {
		t.Fatalf("translated lookup = %+v from %+v, ok %v", e, from, ok)
	}
	if c, want := s.Counters(), (Counters{Commits: 1, Translations: 1}); c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
}

// TestCountersConsistentAggregate: concurrent readers never observe a torn
// cross-shard sum. Each writer does commit-then-lookup, so at any
// consistent instant Hits <= Commits across the whole store.
func TestCountersConsistentAggregate(t *testing.T) {
	s := store.NewSharded(Config{}, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := Key{Bench: fmt.Sprintf("b%d", i%17), Input: fmt.Sprintf("w%d", w)}
				s.Commit(k, Entry{Distance: 1})
				s.Lookup(k)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		// Every lookup follows its key's commit, so a consistent snapshot
		// can never show more hits than commits; a torn one could.
		if c := s.Counters(); c.Hits > c.Commits {
			t.Fatalf("torn counter snapshot: %d hits > %d commits", c.Hits, c.Commits)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedStress: 64 concurrent sessions interleaving commits, lookups,
// refunds, and invalidations across a sharded store (run under -race).
// Afterwards the counters must balance: every hit consumed a budget charge
// that a refund may have returned, every invalidation dropped a live entry.
func TestShardedStress(t *testing.T) {
	s := store.NewSharded(Config{MaxReuse: 4}, 8)
	const sessions = 64
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := Key{
					Bench:   fmt.Sprintf("bench%d", (w+i)%13),
					Input:   fmt.Sprintf("input%d", i%7),
					Machine: fmt.Sprintf("m%d", w%2),
				}
				e, gen, ok := s.Lookup(k)
				if !ok {
					gen = s.Commit(k, Entry{Distance: w + i, Func: "f"})
					if gen == 0 {
						t.Errorf("commit returned gen 0 on an unfrozen store")
						return
					}
					continue
				}
				switch i % 3 {
				case 0:
					s.Refund(k, gen)
				case 1:
					s.Invalidate(k, gen)
				default:
					_ = e
					s.Commit(k, Entry{Distance: e.Distance + 1})
				}
			}
		}(w)
	}
	wg.Wait()
	c := s.Counters()
	if c.Commits == 0 || c.Hits == 0 || c.Invalidations == 0 || c.Refunds == 0 {
		t.Fatalf("stress did not exercise every operation: %+v", c)
	}
	// The store must still be coherent: every exported entry is live and
	// re-importable.
	exported := s.Export()
	if len(exported) != s.Len() {
		t.Fatalf("export %d entries, Len %d", len(exported), s.Len())
	}
}

func TestShardIndexStability(t *testing.T) {
	// Routing must be a pure, machine-blind function of (bench, input).
	k := Key{Bench: "pr", Input: "uniform"}
	if got := store.ShardIndex(k, 1); got != 0 {
		t.Fatalf("ShardIndex(n=1) = %d, want 0", got)
	}
	a := store.ShardIndex(k, 8)
	for i := 0; i < 100; i++ {
		if store.ShardIndex(k, 8) != a {
			t.Fatal("ShardIndex not deterministic")
		}
	}
	if store.ShardIndex(Key{Bench: "pr", Input: "uniform", Machine: "x"}, 8) != a {
		t.Fatal("ShardIndex depends on Machine")
	}
}

// TestShardIndexNULInjective: the routing hash frames bench with its
// length, not a separator byte, so (bench, input) pairs whose strings
// themselves contain NUL never alias. Under the old NUL-separator hash
// every pair here streamed the identical byte sequence "a\x00b\x00c" (or
// "pr\x00\x00") and so shared a shard at every shard count.
func TestShardIndexNULInjective(t *testing.T) {
	const shards = 1 << 20
	aliases := [][2]Key{
		{{Bench: "a\x00b", Input: "c"}, {Bench: "a", Input: "b\x00c"}},
		{{Bench: "pr\x00", Input: ""}, {Bench: "pr", Input: "\x00"}},
		{{Bench: "", Input: "\x00x"}, {Bench: "\x00", Input: "x"}},
	}
	for _, pair := range aliases {
		a, b := store.ShardIndex(pair[0], shards), store.ShardIndex(pair[1], shards)
		if a == b {
			t.Errorf("distinct pairs %q/%q and %q/%q alias to shard %d",
				pair[0].Bench, pair[0].Input, pair[1].Bench, pair[1].Input, a)
		}
	}
	// NUL-bearing keys round-trip losslessly through Export/Import.
	s := store.NewSharded(Config{}, 8)
	for i, pair := range aliases {
		for _, k := range pair {
			k.Machine = "clx"
			s.Commit(k, Entry{Distance: i + 1})
		}
	}
	exported := s.Export()
	for _, dst := range []store.Store{store.NewMemory(Config{}), store.NewSharded(Config{}, 13)} {
		dst.Import(exported)
		if got := dst.Export(); !reflect.DeepEqual(got, exported) {
			t.Fatalf("NUL-bearing keys did not survive import into %T", dst)
		}
	}
}
