package workloads

import (
	"sync"
	"testing"

	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// resident reports the number of distinct keys resident in the cache.
func resident(c *BuildCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Concurrent Build calls for the same key must share one construction and
// return the same immutable workload pointer. Run with -race.
func TestBuildCacheConcurrent(t *testing.T) {
	c := NewBuildCache()
	const callers = 16
	var wg sync.WaitGroup
	got := make([]*Workload, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := c.Build("is", "", 1000)
			if err != nil {
				t.Errorf("Build: %v", err)
				return
			}
			got[i] = w
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different workload pointer", i)
		}
	}
	if b := c.Builds(); b != 1 {
		t.Fatalf("Builds() = %d, want 1 (cache hit must skip graph construction)", b)
	}
	if h := c.Hits(); h != callers-1 {
		t.Fatalf("Hits() = %d, want %d", h, callers-1)
	}
}

// Different (bench, input, repeats) keys build independently.
func TestBuildCacheKeying(t *testing.T) {
	c := NewBuildCache()
	a, err := c.Build("is", "", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build("is", "", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different repeat counts must not share a workload")
	}
	if _, err := c.Build("pr", "soc-alpha", 1000); err != nil {
		t.Fatal(err)
	}
	if got := c.Builds(); got != 3 {
		t.Fatalf("Builds() = %d, want 3", got)
	}
	if got := resident(c); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
}

// Errors are cached: a second call for a bad key is a hit, not a rebuild.
func TestBuildCacheCachesErrors(t *testing.T) {
	c := NewBuildCache()
	if _, err := c.Build("pr", "no-such-input", 10); err == nil {
		t.Fatal("expected error for unknown input")
	}
	if _, err := c.Build("pr", "no-such-input", 10); err == nil {
		t.Fatal("expected cached error for unknown input")
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want 1", got)
	}
	if got := c.Hits(); got != 1 {
		t.Fatalf("Hits() = %d, want 1", got)
	}
}

// A cached workload must be safe to Set up into multiple address spaces:
// kernel-written arrays (sssp's dist) may not be shared between processes.
func TestCachedWorkloadSetupIsolation(t *testing.T) {
	c := NewBuildCache()
	w, err := c.Build("sssp", "soc-alpha", 100)
	if err != nil {
		t.Fatal(err)
	}
	as1 := mem.NewAddrSpace()
	as2 := mem.NewAddrSpace()
	var r1, r2 [isa.NumRegs]uint64
	w.Setup(as1, &r1)
	w.Setup(as2, &r2)

	distAddr1 := r1[3] + 5 // dist[5] in process 1
	distAddr2 := r2[3] + 5 // dist[5] in process 2
	orig, ok := as2.Read(distAddr2)
	if !ok {
		t.Fatal("dist not mapped in second address space")
	}
	if !as1.Write(distAddr1, 12345) {
		t.Fatal("dist not writable in first address space")
	}
	if got, _ := as2.Read(distAddr2); got != orig {
		t.Fatalf("write through process 1 leaked into process 2: dist[5] = %d, want %d", got, orig)
	}
}
