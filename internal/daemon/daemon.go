// Package daemon is the HTTP daemon kit both of the repo's daemons (fleetd,
// stored) are built from: the hardening middleware, the JSON response and
// bounded-body helpers, the one http.Server timeout set, and the
// listen -> addr-file -> serve -> signal -> drain loop their mains share.
// It knows nothing about fleets or stores; a daemon hands it a mux and the
// few policies that differ (what to do on a panic, which route is a
// long-lived stream).
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// What a zero (or negative) RequestTimeout / MaxBodyBytes in a daemon's
// Config means.
const (
	defaultRequestTimeout = 30 * time.Second
	defaultMaxBody        = 1 << 20
)

// Hardening is what differs between daemons in the middleware stack.
type Hardening struct {
	// Timeout bounds each request with a context deadline (0 or less: the
	// default 30s).
	Timeout time.Duration
	// Exempt, when set, names the requests Timeout does not apply to —
	// streams that are long-lived by contract.
	Exempt func(*http.Request) bool
	// OnPanic, when set, is told about each recovered handler panic before
	// the 500 is written (fleetd journals it and parks the addressed session).
	OnPanic func(r *http.Request, v any)
}

// Harden wraps a daemon's routes in the middleware stack, outermost first:
// panic recovery (a panicking handler answers 500 instead of killing the
// connection's goroutine silently), then the per-request deadline. Anything
// the daemon layers itself (fleetd's chaos injector) goes inside h, so an
// injected panic exercises the recovery end to end.
func Harden(h http.Handler, opt Hardening) http.Handler {
	return recoverPanics(withDeadline(h, opt.Timeout, opt.Exempt), opt.OnPanic)
}

// trackWriter remembers whether the response has started, so the recovery
// middleware knows whether a 500 can still be sent after a panic.
type trackWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

func (t *trackWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

func (t *trackWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics keeps the daemon alive through handler panics. The client
// gets one generic 500 — never the panic value, which may carry internals —
// and only if the response had not started: a second header into a
// half-written body would corrupt it. http.ErrAbortHandler is re-thrown:
// that is net/http's sanctioned "abort this connection" signal and the
// sever fault depends on it propagating.
func recoverPanics(next http.Handler, onPanic func(*http.Request, any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			if onPanic != nil {
				onPanic(r, p)
			}
			if !tw.wrote {
				WriteErr(tw, http.StatusInternalServerError, "internal error: handler panicked")
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// withDeadline bounds every non-exempt request with a context deadline so
// a wedged handler cannot hold a connection past the timeout.
func withDeadline(next http.Handler, timeout time.Duration, exempt func(*http.Request) bool) http.Handler {
	if timeout <= 0 {
		timeout = defaultRequestTimeout
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt != nil && exempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// HTTPServer wraps a hardened handler in an http.Server with real
// timeouts, so a slow-loris client or a stuck write cannot pin a
// connection forever. A stream that must outlive WriteTimeout clears its
// own write deadline per response.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// WriteJSON answers with code and v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteErr answers with code and the body every non-2xx response carries:
// one JSON object, {"error": ...}, naming what went wrong.
func WriteErr(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Health answers the liveness probe: "ok", or "draining" once the daemon's
// drain flag is up.
func Health(draining *atomic.Bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		state := "ok"
		if draining.Load() {
			state = "draining"
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": state})
	}
}

// DecodeJSON reads one JSON request body into v, capped at maxBytes (0 or
// less: the default 1 MiB). The body must hold exactly one
// value: only whitespace may follow it. On failure it has already
// answered — 413 past the cap, 400 for anything else, the body called what
// in both messages — and reports false. strict additionally rejects
// unknown fields.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, strict bool, what string, v any) bool {
	if maxBytes <= 0 {
		maxBytes = defaultMaxBody
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the first value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteErr(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, tooBig.Limit)
	} else {
		WriteErr(w, http.StatusBadRequest, "decode %s: %v", what, err)
	}
	return false
}

// Serve is a daemon main's run loop: publish the bound address to addrFile
// (when set; write-then-rename so a watching parent never reads a torn
// file), serve until SIGINT/SIGTERM or a listener error, then drain —
// which gets the signal so the daemon can say what it is doing — and close
// the listener. Drain runs before the listener closes so streams deliver
// their tails and end cleanly. A second signal kills the process normally.
func Serve(ln net.Listener, srv *http.Server, addrFile string, drain func(os.Signal)) error {
	if addrFile != "" {
		tmp := addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, addrFile); err != nil {
			return err
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		signal.Stop(sigc)
		drain(sig)
	}
	srv.Close() // the drain already ended every response that mattered
	return nil
}
