// Package retry is the retry kit both HTTP clients (fleetclient and
// store/remote) are built from: hash-jittered capped exponential backoff,
// Retry-After parsing, the transient status-code set, error-body decoding,
// and one request loop. The loop owns the budgets and the waits; what a
// response *means* is the caller's classifier, so each client keeps its
// own typed errors and policy (DESIGN.md §11.2).
package retry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rpg2/internal/faults"
)

// The jitter salts, fixed per constructor: they keep each client kind's
// wait stream distinct from the other's (and from the fault injectors' own
// Hash01 streams) when a run shares one seed. Changing one changes every
// seeded chaos run's schedule; retry_test.go pins the streams.
const (
	fleetBackoffSalt  = 31
	fleetOverloadSalt = 32
	storeBackoffSalt  = 33
)

// Policy is the part of a client's Config the kit acts on (both clients
// document the fields); zero fields get the defaults below.
type Policy struct {
	HTTP       *http.Client  // default http.DefaultClient
	MaxRetries int           // transient budget per request (default 4; negative: none)
	Base, Cap  time.Duration // attempt n waits Base·2^(n-1) capped at Cap, jittered (50ms, 1s)
	// OverloadRetries is the overloaded budget per request (default 0: the
	// first one surfaces).
	OverloadRetries int
	// Seed drives the jitter (default 1). Waits are hash-derived from
	// (seed, draw ordinal, salt) — no RNG — so the same seed and call order
	// reproduce the same waits exactly, and many clients sharing a daemon
	// do not retry in lockstep.
	Seed int64
}

// Retrier runs requests under a Policy. Safe for concurrent use.
type Retrier struct {
	Policy
	backoffSalt, overloadSalt uint64
	draws                     atomic.Uint64
}

func newRetrier(p Policy, backoffSalt, overloadSalt uint64) *Retrier {
	if p.HTTP == nil {
		p.HTTP = http.DefaultClient
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 4
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return &Retrier{Policy: p, backoffSalt: backoffSalt, overloadSalt: overloadSalt}
}

// ForFleetClient builds the fleet client's retrier.
func ForFleetClient(p Policy) *Retrier { return newRetrier(p, fleetBackoffSalt, fleetOverloadSalt) }

// ForStoreClient builds the remote store client's retrier.
func ForStoreClient(p Policy) *Retrier { return newRetrier(p, storeBackoffSalt, 0) }

// jitter spreads a wait over [d/2, d].
func (r *Retrier) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	f := faults.Hash01(uint64(r.Seed), r.draws.Add(1), r.backoffSalt)
	return d/2 + time.Duration(f*float64(d/2))
}

// BackoffWait is transient attempt n's capped, jittered exponential wait.
func (r *Retrier) BackoffWait(attempt int) time.Duration {
	d := r.Base << (attempt - 1)
	if d > r.Cap || d <= 0 {
		d = r.Cap
	}
	return r.jitter(d)
}

// OverloadWait is the honored form of a Retry-After hint: at least the
// hint, plus up to half again of jitter so retries from a fleet of clients
// don't land on the same tick the daemon suggested.
func (r *Retrier) OverloadWait(after time.Duration) time.Duration {
	if after <= 0 {
		after = time.Second
	}
	f := faults.Hash01(uint64(r.Seed), r.draws.Add(1), r.overloadSalt)
	return after + time.Duration(f*float64(after)/2)
}

// Backoff sleeps out attempt n's BackoffWait, honouring ctx.
func (r *Retrier) Backoff(ctx context.Context, attempt int) error {
	return sleep(ctx, r.BackoffWait(attempt))
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// TransientCode reports response codes worth retrying: the daemon (or a
// proxy in front of it) was unreachable or mid-restart, not wrong.
func TransientCode(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// ParseRetryAfter resolves a Retry-After header, which RFC 9110 allows in
// two forms: non-negative delta-seconds ("3") and an HTTP-date ("Wed, 21
// Oct 2015 07:28:00 GMT" — what proxies often emit). A date is converted
// to the delta from now. Malformed values, and dates already in the past,
// report !ok so the caller falls back to its normal default instead of a
// zero-length wait.
func ParseRetryAfter(raw string, now time.Time) (time.Duration, bool) {
	if raw == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(raw); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second, true
		}
		return 0, false
	}
	if at, err := http.ParseTime(raw); err == nil {
		if d := at.Sub(now); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// DecodeErr extracts the {"error": ...} body of a non-2xx response,
// falling back to the status line.
func DecodeErr(resp *http.Response) string {
	var ae struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		return ae.Error
	}
	return resp.Status
}

// Verdict is a classifier's ruling on one send.
type Verdict struct {
	kind  verdictKind
	err   error
	after time.Duration
}

type verdictKind uint8

const (
	done verdictKind = iota
	fatal
	transient
	overloaded
)

// Done ends the request successfully; the classifier has consumed the body.
func Done() Verdict { return Verdict{kind: done} }

// Fatal ends the request with err: retrying will not heal it.
func Fatal(err error) Verdict { return Verdict{kind: fatal, err: err} }

// Transient charges one attempt of the MaxRetries budget and resends after
// the backoff; err is what the request reports once the budget is spent.
func Transient(err error) Verdict { return Verdict{kind: transient, err: err} }

// Overloaded is backpressure with the server's hint: it charges the
// OverloadRetries budget — separate from the transient one, because
// honoring Retry-After is opt-in policy, not transport recovery — and
// resends after OverloadWait(after); err surfaces once that budget is spent.
func Overloaded(after time.Duration, err error) Verdict {
	return Verdict{kind: overloaded, err: err, after: after}
}

// Classifier rules on one send: a response (whose body the loop closes
// afterwards), or the transport error that prevented one (resp == nil).
type Classifier func(resp *http.Response, err error) Verdict

// Do sends the request (body is a byte slice so every resend carries the
// same payload) until the classifier rules it done or fatal, or a budget
// is spent. If ctx ends during a wait, the classifier is handed ctx.Err()
// as the transport error the next send would have died with and its
// verdict's error is returned — the caller, not the loop, decides whether
// an expired request reports the context or its last real failure.
func (r *Retrier) Do(ctx context.Context, method, url string, body []byte, classify Classifier) error {
	attempt, overloads := 0, 0
	for {
		v := r.send(ctx, method, url, body, classify)
		var wait time.Duration
		switch v.kind {
		case done:
			return nil
		case fatal:
			return v.err
		case overloaded:
			if overloads >= r.OverloadRetries {
				return v.err
			}
			overloads++
			wait = r.OverloadWait(v.after)
		case transient:
			attempt++
			if attempt > r.MaxRetries {
				return v.err
			}
			wait = r.BackoffWait(attempt)
		}
		if err := sleep(ctx, wait); err != nil {
			return classify(nil, err).err
		}
	}
}

func (r *Retrier) send(ctx context.Context, method, url string, body []byte, classify Classifier) Verdict {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.HTTP.Do(req)
	if err != nil {
		return classify(nil, err)
	}
	defer resp.Body.Close()
	return classify(resp, nil)
}
