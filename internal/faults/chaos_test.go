package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// The disk injector's contract: the fault schedule for one key is a pure
// function of (seed, key, op sequence) — independent of which goroutine
// drives the operations and of what other keys are doing.
func TestDiskDeterminism(t *testing.T) {
	run := func(interleaved bool) map[string][]bool {
		d := NewDisk(DiskConfig{Seed: 7, WriteRate: 0.3, SyncRate: 0.2})
		out := map[string][]bool{}
		keys := []string{"journal.wal", "snapshot.wal"}
		if interleaved {
			// Drive the two keys from two goroutines, alternating ops.
			var mu sync.Mutex
			var wg sync.WaitGroup
			for _, k := range keys {
				wg.Add(1)
				go func(k string) {
					defer wg.Done()
					var seq []bool
					for i := 0; i < 64; i++ {
						op := DiskOpWrite
						if i%4 == 3 {
							op = DiskOpSync
						}
						seq = append(seq, d.Check(k, op) != nil)
					}
					mu.Lock()
					out[k] = seq
					mu.Unlock()
				}(k)
			}
			wg.Wait()
		} else {
			for _, k := range keys {
				var seq []bool
				for i := 0; i < 64; i++ {
					op := DiskOpWrite
					if i%4 == 3 {
						op = DiskOpSync
					}
					seq = append(seq, d.Check(k, op) != nil)
				}
				out[k] = seq
			}
		}
		return out
	}
	serial := run(false)
	parallel := run(true)
	for k, want := range serial {
		got := parallel[k]
		if len(got) != len(want) {
			t.Fatalf("key %s: %d decisions vs %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %s op %d: serial=%v parallel=%v — schedule not a pure function of (seed,key,ordinal)", k, i, want[i], got[i])
			}
		}
	}
	if n := NewDisk(DiskConfig{Seed: 7, WriteRate: 0.3, SyncRate: 0.2}); n.Injected() != 0 {
		t.Fatalf("fresh injector reports %d injected", n.Injected())
	}
}

func TestDiskMaxFaultsAndError(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 1, WriteRate: 1, MaxFaults: 2})
	var errs []error
	for i := 0; i < 10; i++ {
		errs = append(errs, d.Check("j", DiskOpWrite))
	}
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
			var de *DiskError
			if !errors.As(err, &de) || de.Op != DiskOpWrite {
				t.Fatalf("wrong error shape: %v", err)
			}
		}
	}
	if n != 2 {
		t.Fatalf("MaxFaults=2 injected %d", n)
	}
	if d.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", d.Injected())
	}
}

func TestDiskZeroRatesNeverInject(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 99})
	for i := 0; i < 1000; i++ {
		if err := d.Check("k", DiskOpWrite); err != nil {
			t.Fatalf("zero-rate injector injected: %v", err)
		}
		if err := d.Check("k", DiskOpSync); err != nil {
			t.Fatalf("zero-rate injector injected: %v", err)
		}
	}
	var nilInj *DiskInjector
	if err := nilInj.Check("k", DiskOpWrite); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
}

func TestDiskTornTailBounds(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 3, TornTailBytes: 16})
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		n := d.TornTail("journal.wal")
		if n < 1 || n > 16 {
			t.Fatalf("tear %d outside [1,16]", n)
		}
		seen[n] = true
	}
	if len(seen) < 4 {
		t.Fatalf("tears not spread: %v", seen)
	}
	// Same seed, fresh injector → same tear sequence.
	d2 := NewDisk(DiskConfig{Seed: 3, TornTailBytes: 16})
	d3 := NewDisk(DiskConfig{Seed: 3, TornTailBytes: 16})
	for i := 0; i < 20; i++ {
		if a, b := d2.TornTail("x"), d3.TornTail("x"); a != b {
			t.Fatalf("tear %d: %d vs %d", i, a, b)
		}
	}
}

// The net injector's contract: the per-route decision stream depends only
// on (seed, route, ordinal), and a single draw partitions into at most one
// fault kind per request.
func TestNetDeterminismAndPartition(t *testing.T) {
	cfg := NetConfig{Seed: 11, DelayRate: 0.2, ErrorRate: 0.2, SeverRate: 0.2, PanicRate: 0.1}
	a, b := NewNet(cfg), NewNet(cfg)
	counts := map[NetFaultKind]int{}
	for i := 0; i < 400; i++ {
		fa := a.Decide("POST /api/v1/sessions")
		fb := b.Decide("POST /api/v1/sessions")
		if fa.Kind != fb.Kind || fa.Ordinal != fb.Ordinal {
			t.Fatalf("draw %d: %+v vs %+v", i, fa, fb)
		}
		counts[fa.Kind]++
	}
	for _, k := range []NetFaultKind{NetDelay, NetError, NetSever, NetPanic} {
		if counts[k] == 0 {
			t.Fatalf("kind %q never drawn at rate >= 0.1 over 400 draws: %v", k, counts)
		}
	}
	// Another route draws an independent stream.
	c := NewNet(cfg)
	same := true
	for i := 0; i < 50; i++ {
		if c.Decide("GET /api/v1/metrics").Kind != a.Decide("POST /api/v1/sessions").Kind {
			same = false
		}
	}
	if same {
		t.Fatal("distinct routes drew identical fault streams")
	}
}

func TestNetZeroRatesNeverInject(t *testing.T) {
	n := NewNet(NetConfig{Seed: 5})
	for i := 0; i < 1000; i++ {
		if f := n.Decide("GET /x"); f.Kind != NetNone {
			t.Fatalf("zero-rate injector drew %q", f.Kind)
		}
	}
	if n.Injected() != 0 {
		t.Fatalf("Injected() = %d", n.Injected())
	}
	var nilInj *NetInjector
	if f := nilInj.Decide("GET /x"); f.Kind != NetNone {
		t.Fatal("nil injector drew a fault")
	}
}

func TestNetTransportErrorAndSever(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 400))
	}))
	defer srv.Close()

	// ErrorRate 1: every round trip fails with an injected error.
	errClient := &http.Client{Transport: NewNet(NetConfig{Seed: 1, ErrorRate: 1}).Transport(nil)}
	if _, err := errClient.Get(srv.URL + "/a"); err == nil || !InjectedNet(err) {
		t.Fatalf("want injected net error, got %v", err)
	}

	// SeverRate 1: the body is cut after SeverAfter bytes.
	sevClient := &http.Client{Transport: NewNet(NetConfig{Seed: 1, SeverRate: 1, SeverAfter: 100}).Transport(nil)}
	resp, err := sevClient.Get(srv.URL + "/b")
	if err != nil {
		t.Fatalf("sever should fail mid-body, not at dial: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF after sever, got %v (read %d bytes)", err, len(body))
	}
	if len(body) != 100 {
		t.Fatalf("sever let %d bytes through, want 100", len(body))
	}
}
