package retry_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rpg2/internal/retry"
)

// TestWaitStreamsPinned pins the three jitter streams at seed 1: the first
// eight waits per salt are the values fleetclient's jitter/overloadWait
// (salts 31, 32) and store/remote's jitter (salt 33) produced before the
// kit existed, so a seeded chaos run schedules exactly as it always did.
func TestWaitStreamsPinned(t *testing.T) {
	fleetBackoff := []time.Duration{30443586, 79262186, 162039161, 274781352, 720410541, 982157151, 708510851, 914683480}
	fleetOverload := []time.Duration{1064640794, 2719765435, 3019891417, 5502263166, 5510175579, 8586514414, 9284781445, 10692967446}
	storeBackoff := []time.Duration{39643106, 79684451, 162387711, 316499703, 438649491, 814983467, 570488878, 612545349}

	r := retry.ForFleetClient(retry.Policy{Seed: 1})
	for i, want := range fleetBackoff {
		if got := r.BackoffWait(i + 1); got != want {
			t.Errorf("fleet backoff attempt %d = %d, want %d", i+1, got, want)
		}
	}
	r = retry.ForFleetClient(retry.Policy{Seed: 1})
	for i, want := range fleetOverload {
		if got := r.OverloadWait(time.Duration(i+1) * time.Second); got != want {
			t.Errorf("fleet overload draw %d = %d, want %d", i+1, got, want)
		}
	}
	r = retry.ForStoreClient(retry.Policy{Seed: 1})
	for i, want := range storeBackoff {
		if got := r.BackoffWait(i + 1); got != want {
			t.Errorf("store backoff attempt %d = %d, want %d", i+1, got, want)
		}
	}
	// Backoff and overload waits share one draw counter per client.
	r = retry.ForFleetClient(retry.Policy{Seed: 1, Base: time.Second})
	got := [3]time.Duration{r.BackoffWait(1), r.OverloadWait(time.Second), r.BackoffWait(1)}
	if want := [3]time.Duration{608871728, 1359882717, 810195808}; got != want {
		t.Errorf("interleaved draws = %v, want %v", got, want)
	}
}

// TestParseRetryAfter: both RFC 9110 forms resolve — delta-seconds and
// HTTP-date — and every malformed, zero, negative, or already-past value
// reports !ok so the caller falls back to its default wait instead of a
// zero-length one.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"7", 7 * time.Second, true},
		{"0", 0, false},
		{"-3", 0, false},
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := retry.ParseRetryAfter(c.raw, now)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %s, %v; want %s, %v", c.raw, got, ok, c.want, c.ok)
		}
	}
}

// TestExpiryMidBackoffIsTheClassifiersCall: when the context ends during a
// backoff wait, Do reports whatever the classifier rules for the context's
// error — the last real failure (store/remote's contract) or ctx.Err()
// (fleetclient's) — and does not send again.
func TestExpiryMidBackoffIsTheClassifiersCall(t *testing.T) {
	var sends atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sends.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	errUnavailable := errors.New("daemon said 503")

	for _, tc := range []struct {
		name     string
		onExpiry func(ctx context.Context, last error) retry.Verdict
		want     error
	}{
		{"last real failure", func(_ context.Context, last error) retry.Verdict { return retry.Fatal(last) }, errUnavailable},
		{"context error", func(ctx context.Context, _ error) retry.Verdict { return retry.Fatal(ctx.Err()) }, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sends.Store(0)
			// The first backoff wait (>= 30s) outlives the 50ms context.
			r := retry.ForStoreClient(retry.Policy{Base: time.Minute, Cap: time.Minute})
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			var last error
			err := r.Do(ctx, http.MethodGet, ts.URL, nil, func(resp *http.Response, err error) retry.Verdict {
				if err != nil {
					return tc.onExpiry(ctx, last)
				}
				last = errUnavailable
				return retry.Transient(last)
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Do = %v, want %v", err, tc.want)
			}
			if n := sends.Load(); n != 1 {
				t.Fatalf("sent %d requests, want 1 (no resend after expiry)", n)
			}
		})
	}
}

// TestBudgetsAreSeparate: transient verdicts spend MaxRetries, overloaded
// verdicts spend OverloadRetries, and each surfaces its own verdict's error
// when its budget runs out.
func TestBudgetsAreSeparate(t *testing.T) {
	var sends atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sends.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer ts.Close()
	errOver, errFlaky := errors.New("over"), errors.New("flaky")

	r := retry.ForFleetClient(retry.Policy{MaxRetries: 2, OverloadRetries: 5, Base: time.Millisecond, Cap: time.Millisecond})
	err := r.Do(context.Background(), http.MethodGet, ts.URL, nil, func(resp *http.Response, err error) retry.Verdict {
		switch {
		case err != nil:
			return retry.Fatal(err)
		case resp.StatusCode == http.StatusTooManyRequests:
			return retry.Overloaded(time.Millisecond, errOver)
		case retry.TransientCode(resp.StatusCode):
			return retry.Transient(errFlaky)
		}
		return retry.Done()
	})
	// 429, 502, 429, 502, 429, 502: the third 502 exceeds MaxRetries 2 with
	// only three of the five overload retries spent.
	if err != errFlaky || sends.Load() != 6 {
		t.Fatalf("Do = %v after %d sends, want %v after 6", err, sends.Load(), errFlaky)
	}
}
