// Package fleetclient is the thin consumer side of the fleetd HTTP API:
// submit specs, poll sessions, fetch results, read metrics, and follow
// the journal event stream. Transient failures (connection errors and
// 502/503/504) retry with capped exponential backoff; backpressure (429)
// surfaces immediately as *Overloaded carrying the daemon's Retry-After,
// because backing off longer than the server asked is the caller's policy
// decision, not the transport's.
package fleetclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetd"
	"rpg2/internal/retry"
)

// Config points a client at a daemon. Only BaseURL is required.
type Config struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8047".
	BaseURL string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxRetries bounds transparent retries of transient failures per
	// request (default 4; negative disables retry).
	MaxRetries int
	// RetryBase and RetryCap shape the exponential backoff between
	// retries: attempt n waits RetryBase·2^(n-1), capped at RetryCap
	// (defaults 50ms and 1s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// PollInterval is Wait's pause before asking again after a held result
	// request came back unfinished (202) or failed (default 25ms).
	PollInterval time.Duration
	// Seed drives the deterministic jitter spread over retry backoff and
	// Retry-After waits (default 1). The jitter is hash-derived from
	// (seed, draw ordinal) — no RNG — so the same seed and call order
	// reproduce the same waits exactly.
	Seed int64
	// OverloadRetries, when positive, makes the client absorb 429s itself:
	// it waits out the daemon's Retry-After hint (plus deterministic
	// jitter, never less than the hint) and resends, up to this many
	// times, before surfacing *Overloaded. Default 0 keeps the original
	// contract — backpressure surfaces immediately as the caller's policy
	// decision.
	OverloadRetries int
}

// Client calls one daemon. Safe for concurrent use.
type Client struct {
	cfg   Config
	retry *retry.Retrier
}

// New builds a client; zero-value config fields get defaults.
func New(cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	return &Client{cfg: cfg, retry: retry.ForFleetClient(retry.Policy{
		HTTP: cfg.HTTP, MaxRetries: cfg.MaxRetries, Base: cfg.RetryBase, Cap: cfg.RetryCap,
		OverloadRetries: cfg.OverloadRetries, Seed: cfg.Seed,
	})}
}

// Overloaded is a backpressure rejection: the daemon returned 429 and
// asked the caller to come back after RetryAfter.
type Overloaded struct {
	RetryAfter time.Duration
	Message    string
}

func (e *Overloaded) Error() string {
	return fmt.Sprintf("fleetd: overloaded (retry after %s): %s", e.RetryAfter, e.Message)
}

// APIError is any other non-2xx response.
type APIError struct {
	Code    int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fleetd: HTTP %d: %s", e.Code, e.Message)
}

// ErrNotFound matches 404 responses via errors.Is.
var ErrNotFound = errors.New("fleetd: not found")

// Is makes errors.Is(err, ErrNotFound) work on 404 APIErrors.
func (e *APIError) Is(target error) bool {
	return target == ErrNotFound && e.Code == http.StatusNotFound
}

// do runs one request through the retry kit's loop, decoding a 2xx (or,
// when acceptAccepted, a 202) JSON body into out. Transient failures
// (connection errors, 502/503/504) spend the MaxRetries budget; a 429
// surfaces as *Overloaded once the opt-in OverloadRetries budget is spent;
// an expired context reports ctx.Err(), never a stale transport error.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, acceptAccepted bool) (int, error) {
	var code int
	err := c.retry.Do(ctx, method, c.cfg.BaseURL+path, body, func(resp *http.Response, err error) retry.Verdict {
		if err != nil {
			if ctx.Err() != nil {
				return retry.Fatal(ctx.Err())
			}
			return retry.Transient(err)
		}
		code = resp.StatusCode
		switch {
		case code == http.StatusOK || (code == http.StatusAccepted && acceptAccepted):
			if out != nil {
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					return retry.Fatal(fmt.Errorf("fleetd: decode response: %w", err))
				}
			}
			return retry.Done()
		case code == http.StatusTooManyRequests:
			after := time.Second
			if d, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				after = d
			}
			return retry.Overloaded(after, &Overloaded{RetryAfter: after, Message: retry.DecodeErr(resp)})
		case retry.TransientCode(code):
			return retry.Transient(&APIError{Code: code, Message: retry.DecodeErr(resp)})
		}
		return retry.Fatal(&APIError{Code: code, Message: retry.DecodeErr(resp)})
	})
	if err != nil {
		return 0, err
	}
	return code, nil
}

// Submit sends one spec (the fleet's WAL wire form) and returns the
// daemon-assigned session ID. A backpressure rejection returns
// *Overloaded; the submission was not admitted.
func (c *Client) Submit(ctx context.Context, spec fleet.SpecRecord) (int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	var resp fleetd.SubmitResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/sessions", body, &resp, true); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Status polls one session.
func (c *Client) Status(ctx context.Context, id int) (fleetd.Status, error) {
	var st fleetd.Status
	_, err := c.do(ctx, http.MethodGet, "/v1/sessions/"+strconv.Itoa(id), nil, &st, false)
	return st, err
}

// Result fetches a session's result. ready is false (with an empty
// Outcome) while the session is still running.
func (c *Client) Result(ctx context.Context, id int) (out fleetd.Outcome, ready bool, err error) {
	return c.result(ctx, id, "")
}

// result is Result with the request's query string ("" or "?wait=...").
func (c *Client) result(ctx context.Context, id int, query string) (out fleetd.Outcome, ready bool, err error) {
	path := "/v1/sessions/" + strconv.Itoa(id) + "/result" + query
	var raw json.RawMessage
	code, err := c.do(ctx, http.MethodGet, path, nil, &raw, true)
	if err != nil {
		return fleetd.Outcome{}, false, err
	}
	if code == http.StatusAccepted {
		return fleetd.Outcome{}, false, nil
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fleetd.Outcome{}, false, err
	}
	return out, true, nil
}

// heldResult asks the daemon to hold a result request until the session is
// terminal. The daemon caps the hold below its own request deadline; asking
// for more than any cap just means "as long as you will".
const heldResult = "?wait=1m"

// Wait returns the session's result once it reaches a terminal state. It is
// one loop over one held request: the daemon answers the moment the session
// finishes, or with 202 when its hold runs out, it drains, or it is a
// daemon that ignores wait — then, and after an error, Wait pauses
// PollInterval and asks again, so against an older daemon it degrades to a
// poll. It is restart-tolerant by design: errors (the daemon dying and
// coming back with -resume) are absorbed until ctx expires — the
// crash-recovery test drives a kill -9 straight through this loop.
func (c *Client) Wait(ctx context.Context, id int) (fleetd.Outcome, error) {
	for {
		out, ready, err := c.result(ctx, id, heldResult)
		if err == nil && ready {
			return out, nil
		}
		// A session the daemon no longer knows will never resolve;
		// everything else (including connection errors while it restarts)
		// is worth out-waiting.
		if err != nil && (errors.Is(err, ErrNotFound) || ctx.Err() != nil) {
			return fleetd.Outcome{}, err
		}
		select {
		case <-ctx.Done():
			return fleetd.Outcome{}, ctx.Err()
		case <-time.After(c.cfg.PollInterval):
		}
	}
}

// Metrics fetches the fleet-wide snapshot.
func (c *Client) Metrics(ctx context.Context) (fleet.Snapshot, error) {
	var snap fleet.Snapshot
	_, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &snap, false)
	return snap, err
}

// Stream follows the daemon's journal from the cursor (events with
// Seq > since; -1 for everything), calling fn for each event in order. A
// dropped connection resumes from the last delivered Seq, so fn sees no
// gap and no duplicate across reconnects. Stream returns nil when the
// daemon drains and ends the stream cleanly, fn's error if fn fails, or
// ctx's error.
func (c *Client) Stream(ctx context.Context, since int, fn func(fleet.Event) error) error {
	cursor := since
	attempt := 0
	for {
		clean, err := c.streamOnce(ctx, &cursor, fn)
		switch {
		case err != nil && ctx.Err() == nil && !isStreamAbort(err):
			// Transport failure: back off and resume from the cursor.
			attempt++
			if attempt > c.retry.MaxRetries {
				return err
			}
			if berr := c.retry.Backoff(ctx, attempt); berr != nil {
				return berr
			}
			continue
		case err != nil:
			return err
		case clean:
			return nil
		default:
			// Delivered events then hit EOF without a drain marker — the
			// connection died mid-stream. Resume; progress resets retries.
			attempt = 0
		}
	}
}

// errStreamAbort wraps fn's failure so Stream does not retry it.
type errStreamAbort struct{ err error }

func (e *errStreamAbort) Error() string { return e.err.Error() }
func (e *errStreamAbort) Unwrap() error { return e.err }

func isStreamAbort(err error) bool {
	var ab *errStreamAbort
	return errors.As(err, &ab)
}

// streamOnce runs one connection of the event stream. clean is true when
// the server ended the stream deliberately (drain): the response body
// reached EOF after a complete final event.
func (c *Client) streamOnce(ctx context.Context, cursor *int, fn func(fleet.Event) error) (clean bool, err error) {
	path := "/v1/events?since=" + strconv.Itoa(*cursor)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+path, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, &APIError{Code: resp.StatusCode, Message: retry.DecodeErr(resp)}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var e fleet.Event
		if derr := dec.Decode(&e); derr != nil {
			if errors.Is(derr, io.EOF) {
				return true, nil
			}
			return false, derr
		}
		if e.Seq > *cursor {
			if ferr := fn(e); ferr != nil {
				return false, &errStreamAbort{ferr}
			}
			*cursor = e.Seq
		}
	}
}

// Health reports the daemon's liveness state ("ok" or "draining").
func (c *Client) Health(ctx context.Context) (string, error) {
	var h struct {
		Status string `json:"status"`
	}
	_, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h, false)
	return h.Status, err
}
