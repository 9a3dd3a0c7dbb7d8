// Package remote is the client side of the out-of-process profile store:
// a store.Store implementation that forwards every operation to an
// rpg2-stored daemon over HTTP/JSON. A fleet configured with a store
// address swaps this in where a Memory store would sit, and
// nothing above the interface can tell the difference — generations live
// in the daemon, so two fleet processes racing a commit on the same key
// resolve exactly like two in-process workers.
//
// The interface has no error returns, so the transport must never surface
// one. Transient failures (connection errors, 502/503/504) retry through
// the retry kit's capped, hash-jittered backoff, like the fleet client's.
// When the budget is spent — the daemon is gone, not flaky — the client
// degrades permanently to a process-local fallback store and fires
// OnDegrade exactly once so the fleet can journal the event. The fallback
// starts cold: entries the daemon held are lost to this process (it may
// not even be reachable to ask), which trades warm-start hit rate for
// liveness — sessions keep finishing, they just re-profile. There is no
// re-attach: flapping between a shared and a private store would split
// generations across two histories and break the gen-guard contract the
// daemon exists to arbitrate.
package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rpg2/internal/retry"
	"rpg2/internal/store"
	"rpg2/internal/stored"
)

// Config points a client at a store daemon. Only BaseURL is required.
type Config struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8049".
	BaseURL string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxRetries bounds transparent retries of transient failures per
	// operation (default 4; negative disables retry).
	MaxRetries int
	// RetryBase and RetryCap shape the exponential backoff between
	// retries (defaults 50ms and 1s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// OnDegrade, when set, fires exactly once with the error that spent
	// the retry budget.
	OnDegrade func(error)
}

// opTimeout bounds each operation end to end, retries included. The
// ceiling is what turns a hung daemon into a degrade instead of a wedged
// worker.
const opTimeout = 15 * time.Second

// Client is a store.Store over a store daemon. Safe for concurrent use.
type Client struct {
	cfg Config
	// fb is the process-local store the client degrades to: always a
	// default Memory store (a caller who wants a tuned store passes it to
	// the fleet as Config.Store instead of a store address).
	fb       store.Store
	retry    *retry.Retrier
	degraded atomic.Bool
	degOnce  sync.Once
}

var _ store.Store = (*Client)(nil)

// New builds a client; zero-value config fields get defaults, and the
// backoff jitter runs on the retry kit's default seed. The daemon is not
// contacted here — an unreachable address degrades on first use, not at
// construction, so a fleet can start before its store does.
func New(cfg Config) *Client {
	return &Client{cfg: cfg, fb: store.NewMemory(store.Config{}), retry: retry.ForStoreClient(retry.Policy{
		HTTP: cfg.HTTP, MaxRetries: cfg.MaxRetries, Base: cfg.RetryBase, Cap: cfg.RetryCap,
	})}
}

// Degraded reports whether the client has switched to its local fallback.
func (c *Client) Degraded() bool { return c.degraded.Load() }

func (c *Client) degrade(err error) {
	c.degOnce.Do(func() {
		c.degraded.Store(true)
		if c.cfg.OnDegrade != nil {
			c.cfg.OnDegrade(err)
		}
	})
}

// call runs one operation against the daemon through the retry kit's
// loop, under the per-op timeout. in == nil sends a GET; otherwise a JSON
// POST. Transient failures (connection errors, 502/503/504) spend the
// MaxRetries budget; when the timeout expires instead, the operation
// reports its last real failure rather than the context's, so OnDegrade
// names what was wrong with the daemon.
func (c *Client) call(path string, in, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var body []byte
	method := http.MethodGet
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("remote store: encode request: %w", err)
		}
		body, method = raw, http.MethodPost
	}
	var lastErr error
	return c.retry.Do(ctx, method, c.cfg.BaseURL+path, body, func(resp *http.Response, err error) retry.Verdict {
		if err != nil {
			if ctx.Err() != nil && lastErr != nil {
				return retry.Fatal(lastErr)
			}
			lastErr = err
			return retry.Transient(err)
		}
		if resp.StatusCode == http.StatusOK {
			if out != nil {
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					return retry.Fatal(fmt.Errorf("remote store: decode response: %w", err))
				}
			}
			return retry.Done()
		}
		err = fmt.Errorf("remote store: HTTP %d on %s: %s", resp.StatusCode, path, retry.DecodeErr(resp))
		if !retry.TransientCode(resp.StatusCode) {
			// A non-transient rejection (bad request, daemon draining into
			// shutdown) will not heal by retrying.
			return retry.Fatal(err)
		}
		lastErr = err
		return retry.Transient(err)
	})
}

// op runs call and reports whether the daemon answered; a failure
// degrades the client so the caller falls back locally.
func (c *Client) op(path string, in, out any) bool {
	if c.degraded.Load() {
		return false
	}
	if err := c.call(path, in, out); err != nil {
		c.degrade(fmt.Errorf("store daemon at %s unreachable: %w", c.cfg.BaseURL, err))
		return false
	}
	return true
}

// --- store.Store ---

func (c *Client) Lookup(k store.Key) (store.Entry, uint64, bool) {
	var resp stored.LookupResp
	if !c.op("/v1/store/lookup", stored.KeyReq{Key: k}, &resp) {
		return c.fb.Lookup(k)
	}
	return resp.Entry, resp.Gen, resp.Found
}

func (c *Client) LookupTranslated(k store.Key) (store.Entry, store.Key, uint64, bool) {
	var resp stored.LookupResp
	if !c.op("/v1/store/lookup-translated", stored.KeyReq{Key: k}, &resp) {
		return c.fb.LookupTranslated(k)
	}
	return resp.Entry, resp.From, resp.Gen, resp.Found
}

func (c *Client) Commit(k store.Key, e store.Entry) uint64 {
	var resp stored.GenResp
	if !c.op("/v1/store/commit", stored.CommitReq{Key: k, Entry: e}, &resp) {
		return c.fb.Commit(k, e)
	}
	return resp.Gen
}

func (c *Client) Refund(k store.Key, gen uint64) bool {
	var resp stored.OKResp
	if !c.op("/v1/store/refund", stored.GenReq{Key: k, Gen: gen}, &resp) {
		return c.fb.Refund(k, gen)
	}
	return resp.OK
}

func (c *Client) Invalidate(k store.Key, gen uint64) bool {
	var resp stored.OKResp
	if !c.op("/v1/store/invalidate", stored.GenReq{Key: k, Gen: gen}, &resp) {
		return c.fb.Invalidate(k, gen)
	}
	return resp.OK
}

func (c *Client) Freeze() {
	if !c.op("/v1/store/freeze", struct{}{}, nil) {
		c.fb.Freeze()
	}
}

func (c *Client) Thaw() {
	if !c.op("/v1/store/thaw", struct{}{}, nil) {
		c.fb.Thaw()
	}
}

func (c *Client) Export() []store.KeyedEntry {
	var resp stored.EntriesMsg
	if !c.op("/v1/store/export", nil, &resp) {
		return c.fb.Export()
	}
	return resp.Entries
}

func (c *Client) Import(entries []store.KeyedEntry) {
	if !c.op("/v1/store/import", stored.EntriesMsg{Entries: entries}, nil) {
		c.fb.Import(entries)
	}
}

func (c *Client) Len() int {
	st, ok := c.stats()
	if !ok {
		return c.fb.Len()
	}
	return st.Len
}

func (c *Client) Counters() store.Counters {
	st, ok := c.stats()
	if !ok {
		return c.fb.Counters()
	}
	return st.Counters
}

func (c *Client) stats() (stored.StatsResp, bool) {
	var st stored.StatsResp
	if !c.op("/v1/store/stats", nil, &st) {
		return stored.StatsResp{}, false
	}
	return st, true
}
