// Transport-layer tests against scripted HTTP stubs: the retry loop, the
// backpressure and not-found error surfaces — the parts of the client the
// daemon integration tests cannot isolate.
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

func fastClient(baseURL string, maxRetries int) *Client {
	return New(Config{
		BaseURL: baseURL, MaxRetries: maxRetries,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond,
	})
}

// TestTransientRetry: 503s are retried with backoff until the daemon
// comes back; the submission then succeeds without the caller noticing.
func TestTransientRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"restarting"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":7,"state":"queued"}`))
	}))
	defer ts.Close()

	id, err := fastClient(ts.URL, 4).Submit(context.Background(), fleet.SpecRecord{Bench: "is"})
	if err != nil {
		t.Fatalf("submit across two 503s: %v", err)
	}
	if id != 7 || calls.Load() != 3 {
		t.Fatalf("id = %d after %d calls, want 7 after 3", id, calls.Load())
	}
}

// TestRetryBudgetExhausted: a daemon that never recovers surfaces the
// final APIError after MaxRetries+1 attempts; negative MaxRetries means
// exactly one attempt.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var apiErr *APIError
	if _, err := fastClient(ts.URL, 2).Submit(context.Background(), fleet.SpecRecord{Bench: "is"}); !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries = %v, want 503 APIError", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("made %d attempts, want 3 (1 + MaxRetries)", calls.Load())
	}

	calls.Store(0)
	if _, err := fastClient(ts.URL, -1).Submit(context.Background(), fleet.SpecRecord{Bench: "is"}); !errors.As(err, &apiErr) {
		t.Fatalf("retry-disabled submit = %v, want APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("retry-disabled client made %d attempts, want 1", calls.Load())
	}
}

// TestOverloadedNotRetried: a 429 is a backpressure decision, not a
// transient fault — it surfaces immediately with the daemon's Retry-After.
func TestOverloadedNotRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"tenant queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	var over *Overloaded
	if _, err := fastClient(ts.URL, 4).Submit(context.Background(), fleet.SpecRecord{Bench: "is"}); !errors.As(err, &over) {
		t.Fatalf("429 surfaced as %v, want Overloaded", err)
	}
	if over.RetryAfter != 7*time.Second {
		t.Fatalf("Retry-After parsed as %s, want 7s", over.RetryAfter)
	}
	if calls.Load() != 1 {
		t.Fatalf("429 was retried (%d attempts)", calls.Load())
	}
}

// TestOverloadedHTTPDateRetryAfter: a proxy-style HTTP-date Retry-After
// reaches the caller as a real duration, not the 1s fallback garbage the
// delta-seconds-only parser produced.
func TestOverloadedHTTPDateRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		http.Error(w, `{"error":"tenant queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	var over *Overloaded
	if _, err := fastClient(ts.URL, 4).Submit(context.Background(), fleet.SpecRecord{Bench: "is"}); !errors.As(err, &over) {
		t.Fatalf("429 surfaced as %v, want Overloaded", err)
	}
	// The date is relative to a live clock; accept the window's slack.
	if over.RetryAfter < 25*time.Second || over.RetryAfter > 30*time.Second {
		t.Fatalf("HTTP-date Retry-After parsed as %s, want ~30s", over.RetryAfter)
	}
}

// TestNotFoundMatchesSentinel: 404s satisfy errors.Is(err, ErrNotFound)
// and are never retried.
func TestNotFoundMatchesSentinel(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no session 9"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	if _, err := fastClient(ts.URL, 4).Status(context.Background(), 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 = %v, want ErrNotFound", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 was retried (%d attempts)", calls.Load())
	}
}

// TestWaitAbsorbsOutages: Wait keeps polling through a daemon outage (the
// restart window of the crash test) and resolves once the daemon answers
// with a terminal state again.
func TestWaitAbsorbsOutages(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		switch {
		case n <= 3:
			http.Error(w, `{"error":"mid-restart"}`, http.StatusBadGateway)
		case r.URL.Path == "/v1/sessions/4/result":
			w.Write([]byte(`{"state":"done","warm":true}`))
		default:
			w.Write([]byte(`{"id":4,"state":"done","terminal":true,"warm":true}`))
		}
	}))
	defer ts.Close()

	cli := New(Config{BaseURL: ts.URL, MaxRetries: -1, PollInterval: time.Millisecond})
	out, err := cli.Wait(context.Background(), 4)
	if err != nil {
		t.Fatalf("wait across outage: %v", err)
	}
	if out.State != "done" || !out.Warm {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestWaitIsOneHeldRequest: against a daemon that honours wait, Wait sends
// one result request, asks it to be held, and never polls status.
func TestWaitIsOneHeldRequest(t *testing.T) {
	var calls atomic.Int32
	finish := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Path != "/v1/sessions/4/result" || r.URL.Query().Get("wait") == "" {
			t.Errorf("Wait sent %s, want a held result request", r.URL)
		}
		<-finish // held until the session is terminal
		w.Write([]byte(`{"state":"done","warm":true}`))
	}))
	defer ts.Close()

	cli := New(Config{BaseURL: ts.URL, MaxRetries: -1, PollInterval: time.Minute})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(finish)
	}()
	out, err := cli.Wait(context.Background(), 4)
	if err != nil || out.State != "done" || !out.Warm {
		t.Fatalf("Wait = %+v, %v", out, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("Wait made %d requests, want 1", calls.Load())
	}
}

// TestWaitFallsBackToPollingWhenWaitIsIgnored: a daemon that predates wait
// answers every result request at once; Wait then paces itself by
// PollInterval — the cadence it had before — and still returns.
func TestWaitFallsBackToPollingWhenWaitIsIgnored(t *testing.T) {
	const interval, unfinished = 10 * time.Millisecond, 4
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= unfinished {
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":4,"state":"tuning","terminal":false}`))
			return
		}
		w.Write([]byte(`{"state":"done"}`))
	}))
	defer ts.Close()

	cli := New(Config{BaseURL: ts.URL, MaxRetries: -1, PollInterval: interval})
	start := time.Now()
	out, err := cli.Wait(context.Background(), 4)
	if err != nil || out.State != "done" {
		t.Fatalf("Wait = %+v, %v", out, err)
	}
	if calls.Load() != unfinished+1 {
		t.Fatalf("Wait made %d requests, want %d", calls.Load(), unfinished+1)
	}
	if took := time.Since(start); took < unfinished*interval {
		t.Fatalf("%d unfinished answers cost %v; Wait did not pause PollInterval (%v) between them", unfinished, took, interval)
	}
}

// TestWaitRetriesSeveredHeldResponse: a held response cut mid-body is one
// more transient — Wait asks again and returns the outcome.
func TestWaitRetriesSeveredHeldResponse(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte(`{"state":"done","warm":true}`))
	}))
	defer ts.Close()

	cli := New(Config{
		BaseURL: ts.URL, MaxRetries: -1, PollInterval: time.Millisecond,
		HTTP: &http.Client{Transport: faults.NewNet(faults.NetConfig{
			Seed: 1, SeverRate: 1, SeverAfter: 8, MaxFaults: 1}).Transport(nil)},
	})
	out, err := cli.Wait(context.Background(), 4)
	if err != nil || out.State != "done" || !out.Warm {
		t.Fatalf("Wait across a severed response = %+v, %v", out, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("Wait made %d requests, want 2 (the severed one and its retry)", calls.Load())
	}
}
