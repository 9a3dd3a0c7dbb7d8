package faults

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// NetFaultKind names what the network injector does to one request.
type NetFaultKind string

const (
	// NetNone leaves the request alone.
	NetNone NetFaultKind = ""
	// NetDelay stalls the request for Config.Delay before proceeding.
	NetDelay NetFaultKind = "delay"
	// NetError fails the request outright: a connection error client-side,
	// a 500 daemon-side.
	NetError NetFaultKind = "error"
	// NetSever cuts the response body after SeverAfter bytes.
	NetSever NetFaultKind = "sever"
	// NetPanic panics the handler (daemon-side only; the client transport
	// passes this band through untouched).
	NetPanic NetFaultKind = "panic"
)

// NetFaultError is an injected network fault, distinct from organic
// transport errors so tests can assert provenance.
type NetFaultError struct {
	Kind    NetFaultKind
	Route   string
	Ordinal int
}

func (e *NetFaultError) Error() string {
	return fmt.Sprintf("faults: injected network %s fault (route %q, request #%d)",
		e.Kind, e.Route, e.Ordinal)
}

// InjectedNet reports whether err is (or wraps) an injected network fault.
func InjectedNet(err error) bool {
	var ne *NetFaultError
	return errors.As(err, &ne)
}

// NetConfig tunes a NetInjector. The rates partition a single uniform hash
// draw per request — sever first, then error, delay, panic — so at most one
// fault fires per request and raising one rate never reshuffles another
// band's decisions for draws outside the moved boundary.
type NetConfig struct {
	// Seed drives every decision.
	Seed int64
	// DelayRate is the probability a request is stalled by Delay.
	DelayRate float64
	// ErrorRate is the probability a request fails outright.
	ErrorRate float64
	// SeverRate is the probability a response body is cut mid-stream.
	SeverRate float64
	// PanicRate is the probability a daemon handler panics.
	PanicRate float64
	// Delay is the injected stall (0 = default 10ms).
	Delay time.Duration
	// SeverAfter is how many body bytes escape before the cut (0 = 64).
	SeverAfter int
	// MaxFaults caps the total number of injected faults (0 = unlimited).
	MaxFaults int
}

// NetFault is one request's injection decision.
type NetFault struct {
	Kind       NetFaultKind
	Delay      time.Duration
	SeverAfter int
	Route      string
	Ordinal    int
}

// Err wraps the decision as an error for journaling or returning.
func (f NetFault) Err() error {
	return &NetFaultError{Kind: f.Kind, Route: f.Route, Ordinal: f.Ordinal}
}

// NetInjector makes deterministic per-(route, request ordinal) network
// fault decisions. The ordinal is the injector's own per-route request
// count, so a single-connection client (or a test harness issuing requests
// in order) sees a replayable fault schedule. It is safe for concurrent use.
type NetInjector struct {
	cfg NetConfig

	mu       sync.Mutex
	ordinals map[string]int
	total    int
}

// NewNet builds a network fault injector.
func NewNet(cfg NetConfig) *NetInjector {
	return &NetInjector{
		cfg:      cfg,
		ordinals: make(map[string]int),
	}
}

// Decide draws this route's next injection decision. Route should name the
// handler shape (method + path pattern), not per-request values, so the
// ordinal stream stays dense per handler.
func (n *NetInjector) Decide(route string) NetFault {
	if n == nil {
		return NetFault{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ord := n.ordinals[route]
	n.ordinals[route] = ord + 1
	f := NetFault{Route: route, Ordinal: ord}
	if n.cfg.MaxFaults > 0 && n.total >= n.cfg.MaxFaults {
		return f
	}
	u := hash01(uint64(n.cfg.Seed), KeyHash(route), uint64(ord), 21)
	switch {
	case u < n.cfg.SeverRate:
		f.Kind = NetSever
	case u < n.cfg.SeverRate+n.cfg.ErrorRate:
		f.Kind = NetError
	case u < n.cfg.SeverRate+n.cfg.ErrorRate+n.cfg.DelayRate:
		f.Kind = NetDelay
	case u < n.cfg.SeverRate+n.cfg.ErrorRate+n.cfg.DelayRate+n.cfg.PanicRate:
		f.Kind = NetPanic
	default:
		return f
	}
	f.Delay = n.cfg.Delay
	if f.Delay <= 0 {
		f.Delay = 10 * time.Millisecond
	}
	f.SeverAfter = n.cfg.SeverAfter
	if f.SeverAfter <= 0 {
		f.SeverAfter = 64
	}
	n.total++
	return f
}

// Injected returns the total number of network faults injected so far.
func (n *NetInjector) Injected() int {
	if n == nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.total
}

// Transport wraps base (nil = http.DefaultTransport) with client-side
// injection: delays stall before dialing, errors fail the round trip with
// an *NetFaultError (which the fleet client treats like any connection
// error and retries), and severs cut the response body after SeverAfter
// bytes with io.ErrUnexpectedEOF. The panic band is daemon-side semantics
// and passes through untouched here.
func (n *NetInjector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{inj: n, base: base}
}

type faultTransport struct {
	inj  *NetInjector
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.inj.Decide(req.Method + " " + req.URL.Path)
	switch f.Kind {
	case NetDelay:
		timer := time.NewTimer(f.Delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	case NetError:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, f.Err()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || f.Kind != NetSever {
		return resp, err
	}
	resp.Body = &severedBody{rc: resp.Body, remaining: f.SeverAfter}
	return resp, nil
}

// severedBody lets remaining bytes through, then reports a torn connection.
type severedBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *severedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == nil && b.remaining <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *severedBody) Close() error { return b.rc.Close() }
