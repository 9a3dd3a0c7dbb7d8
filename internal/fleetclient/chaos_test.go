// Chaos-layer client tests: the deterministic retry jitter, the opt-in
// Retry-After honoring lane, and the fault-injecting transport.
package fleetclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rpg2/internal/faults"
	"rpg2/internal/fleet"
)

// TestJitterDeterministicPerSeed: jitter is hash-derived from (seed, draw
// ordinal), so two clients with the same seed replay the same wait
// sequence, and every draw stays inside [d/2, d].
func TestJitterDeterministicPerSeed(t *testing.T) {
	const d = 100 * time.Millisecond // attempt 2's pre-jitter wait at the default 50ms base
	a := New(Config{BaseURL: "http://unused", Seed: 5})
	b := New(Config{BaseURL: "http://unused", Seed: 5})
	c := New(Config{BaseURL: "http://unused", Seed: 6})
	differs := false
	for i := 0; i < 64; i++ {
		ja, jb, jc := a.retry.BackoffWait(2), b.retry.BackoffWait(2), c.retry.BackoffWait(2)
		if ja != jb {
			t.Fatalf("draw %d: same seed diverged: %s vs %s", i, ja, jb)
		}
		if ja < d/2 || ja > d {
			t.Fatalf("draw %d: jitter %s outside [%s, %s]", i, ja, d/2, d)
		}
		if ja != jc {
			differs = true
		}
	}
	if !differs {
		t.Fatal("64 draws from different seeds never diverged")
	}
}

// TestOverloadWaitNeverUndercutsHint: the honored form of Retry-After is
// at least the hint — jitter only ever stretches the wait.
func TestOverloadWaitNeverUndercutsHint(t *testing.T) {
	c := New(Config{BaseURL: "http://unused", Seed: 9})
	const hint = 2 * time.Second
	for i := 0; i < 64; i++ {
		if w := c.retry.OverloadWait(hint); w < hint || w > hint+hint/2 {
			t.Fatalf("draw %d: wait %s outside [%s, %s]", i, w, hint, hint+hint/2)
		}
	}
}

// TestOverloadRetriesHonorRetryAfter: with the opt-in budget, the client
// absorbs a 429 by waiting out the daemon's hint and resending, instead
// of surfacing Overloaded.
func TestOverloadRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":7,"state":"queued"}`))
	}))
	defer ts.Close()

	cli := New(Config{BaseURL: ts.URL, OverloadRetries: 1, Seed: 3})
	start := time.Now()
	id, err := cli.Submit(context.Background(), fleet.SpecRecord{Bench: "is"})
	if err != nil {
		t.Fatalf("Submit with overload budget failed: %v", err)
	}
	if id != 7 {
		t.Fatalf("Submit returned id %d, want 7", id)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("client came back after %s, before the 1s Retry-After hint", waited)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2", n)
	}
}

// TestOverloadBudgetExhaustedSurfaces: once the budget runs out the
// original contract returns — *Overloaded surfaces to the caller.
func TestOverloadBudgetExhaustedSurfaces(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer ts.Close()

	cli := New(Config{BaseURL: ts.URL, OverloadRetries: 1, Seed: 3})
	_, err := cli.Submit(context.Background(), fleet.SpecRecord{Bench: "is"})
	var over *Overloaded
	if !errors.As(err, &over) {
		t.Fatalf("exhausted overload budget surfaced %v, want *Overloaded", err)
	}
}

// TestNetFaultTransportWired: an injector's transport in Config.HTTP must
// actually intercept the client's requests — an ErrorRate-1 injector fails
// every round trip with a recognizably injected error.
func TestNetFaultTransportWired(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	cli := New(Config{
		BaseURL:    ts.URL,
		MaxRetries: -1, // surface the first failure
		HTTP:       &http.Client{Transport: faults.NewNet(faults.NetConfig{Seed: 1, ErrorRate: 1}).Transport(nil)},
	})
	_, err := cli.Health(context.Background())
	if err == nil {
		t.Fatal("ErrorRate-1 injector let a request through")
	}
	if !faults.InjectedNet(err) {
		t.Fatalf("transport failure %v is not marked as injected", err)
	}
}
