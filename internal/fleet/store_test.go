package fleet

import "testing"

func profileKey() Key { return Key{Bench: "pr", Input: "soc-alpha", Machine: "cascadelake"} }

func TestStoreHitMissCounting(t *testing.T) {
	s := NewStore(StoreConfig{})
	k := profileKey()
	if _, _, ok := s.Lookup(k); ok {
		t.Fatal("lookup on empty store hit")
	}
	s.Commit(k, Entry{Func: "pr_kernel", Candidates: []int{10}, Distance: 40})
	e, _, ok := s.Lookup(k)
	if !ok || e.Distance != 40 || e.Func != "pr_kernel" {
		t.Fatalf("lookup after commit = %+v, %v", e, ok)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Commits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestStoreStalenessEvicts(t *testing.T) {
	s := NewStore(StoreConfig{MaxReuse: 2})
	k := profileKey()
	s.Commit(k, Entry{Distance: 10})
	for i := 0; i < 2; i++ {
		if _, _, ok := s.Lookup(k); !ok {
			t.Fatalf("lookup %d missed within reuse budget", i)
		}
	}
	// Third lookup exceeds MaxReuse: stale, evicted, reported as a miss.
	if _, _, ok := s.Lookup(k); ok {
		t.Fatal("stale entry served")
	}
	if s.Len() != 0 {
		t.Fatalf("stale entry not evicted, len=%d", s.Len())
	}
	c := s.Counters()
	if c.Stale != 1 || c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("counters = %+v", c)
	}
	// A recommit resets the reuse budget.
	s.Commit(k, Entry{Distance: 20})
	if e, _, ok := s.Lookup(k); !ok || e.Distance != 20 {
		t.Fatalf("recommitted entry = %+v, %v", e, ok)
	}
}

func TestStoreInvalidateGenerationGuard(t *testing.T) {
	s := NewStore(StoreConfig{})
	k := profileKey()
	s.Commit(k, Entry{Distance: 10})
	_, gen1, _ := s.Lookup(k)
	// A concurrent session commits a fresher profile before the first
	// session decides to invalidate: the stale-generation invalidate
	// must not clobber the fresh entry.
	s.Commit(k, Entry{Distance: 30})
	if s.Invalidate(k, gen1) {
		t.Fatal("stale-generation invalidate dropped a fresh entry")
	}
	e, gen2, ok := s.Lookup(k)
	if !ok || e.Distance != 30 {
		t.Fatalf("fresh entry lost: %+v, %v", e, ok)
	}
	if !s.Invalidate(k, gen2) {
		t.Fatal("current-generation invalidate refused")
	}
	if s.Len() != 0 {
		t.Fatal("invalidate left the entry live")
	}
	if c := s.Counters(); c.Invalidations != 1 {
		t.Fatalf("counters = %+v", c)
	}
}
