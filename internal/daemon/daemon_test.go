package daemon_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rpg2/internal/daemon"
	"rpg2/internal/fleet"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
	"rpg2/internal/stored"
)

// faultyWriter panics with what on the first call of one ResponseWriter
// method, so a panic can be planted at a chosen point of any handler's
// response without a seam in the daemon under test.
type faultyWriter struct {
	*httptest.ResponseRecorder
	on      string // "Header" (before anything is written) or "Write" (after the header went out)
	what    any
	fired   bool
	headers int // WriteHeader calls that reached the recorder
}

func (f *faultyWriter) trip(method string) {
	if f.on == method && !f.fired {
		f.fired = true
		panic(f.what)
	}
}

func (f *faultyWriter) Header() http.Header {
	f.trip("Header")
	return f.ResponseRecorder.Header()
}

func (f *faultyWriter) WriteHeader(code int) {
	f.headers++
	f.ResponseRecorder.WriteHeader(code)
}

func (f *faultyWriter) Write(b []byte) (int, error) {
	f.trip("Write")
	return f.ResponseRecorder.Write(b)
}

// hardened is what both daemons' servers offer the kit's tests.
type hardened interface {
	Handler() http.Handler
	HTTPServer() *http.Server
}

func bothDaemons(t *testing.T) map[string]hardened {
	t.Helper()
	fd, err := fleetd.New(fleetd.Config{Fleet: fleet.Config{Machine: machine.CascadeLake(), Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Drain() })
	sd, err := stored.New(stored.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sd.Drain() })
	return map[string]hardened{"fleetd": fd, "stored": sd}
}

// TestPanicHandlingBothDaemons drives the shared recovery middleware
// through each daemon's real Handler(): a panic before any write yields one
// generic 500 that does not leak the panic value, a panic after the
// response started sends no second header, and http.ErrAbortHandler
// propagates to net/http untouched.
func TestPanicHandlingBothDaemons(t *testing.T) {
	const secret = "secret-token-123"
	cases := []struct {
		name      string
		on        string
		what      any
		wantAbort bool
		wantCode  int
		wantBody  string
	}{
		{"before any write", "Header", secret, false, http.StatusInternalServerError, `{"error":"internal error: handler panicked"}`},
		{"after partial write", "Write", secret, false, http.StatusOK, ""},
		{"abort handler", "Write", http.ErrAbortHandler, true, http.StatusOK, ""},
	}
	for name, d := range bothDaemons(t) {
		h := d.Handler()
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				w := &faultyWriter{ResponseRecorder: httptest.NewRecorder(), on: tc.on, what: tc.what}
				var escaped any
				func() {
					defer func() { escaped = recover() }()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
				}()
				if !w.fired {
					t.Fatal("the planted panic never fired")
				}
				if tc.wantAbort {
					if err, ok := escaped.(error); !ok || !errors.Is(err, http.ErrAbortHandler) {
						t.Fatalf("ErrAbortHandler was swallowed (escaped: %v)", escaped)
					}
					return
				}
				if escaped != nil {
					t.Fatalf("panic escaped the middleware: %v", escaped)
				}
				if w.headers != 1 || w.Code != tc.wantCode {
					t.Fatalf("%d headers written, status %d; want 1 header, status %d", w.headers, w.Code, tc.wantCode)
				}
				body := w.Body.String()
				if strings.Contains(body, secret) {
					t.Fatalf("panic value leaked to the client: %q", body)
				}
				if got := strings.TrimSpace(body); got != tc.wantBody {
					t.Fatalf("body %q, want %q", got, tc.wantBody)
				}
			})
		}
	}
}

// TestHTTPServerTimeoutsBothDaemons: neither daemon's http.Server leaves a
// timeout at net/http's zero (forever).
func TestHTTPServerTimeoutsBothDaemons(t *testing.T) {
	for name, d := range bothDaemons(t) {
		hs := d.HTTPServer()
		if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
			t.Errorf("%s: HTTPServer leaves a timeout unset: %+v", name, hs)
		}
	}
}

// TestDecodeJSONOneValue: a request body is one JSON value and nothing
// else. Whitespace may follow it (json.Encoder ends with a newline), but a
// second value or garbage is a 400: running only the first value would
// silently drop part of what the client sent.
func TestDecodeJSONOneValue(t *testing.T) {
	cases := []struct {
		name     string
		body     string
		max      int64
		strict   bool
		wantOK   bool
		wantCode int
	}{
		{"one value", `{"bench":"is"}`, 0, true, true, http.StatusOK},
		{"encoder newline", "{\"bench\":\"is\"}\n", 0, true, true, http.StatusOK},
		{"surrounding whitespace", " \t{\"bench\":\"is\"} \r\n\t", 0, false, true, http.StatusOK},
		{"second value", `{"bench":"is"}{"bench":"cg"}`, 0, true, false, http.StatusBadRequest},
		{"second value, lax", `{"bench":"is"}{"bench":"cg"}`, 0, false, false, http.StatusBadRequest},
		{"trailing garbage", `{"bench":"is"} garbage`, 0, true, false, http.StatusBadRequest},
		{"trailing number", `{"bench":"is"} 7`, 0, false, false, http.StatusBadRequest},
		{"trailing close brace", `{"bench":"is"}}`, 0, false, false, http.StatusBadRequest},
		{"empty body", ``, 0, false, false, http.StatusBadRequest},
		{"unknown field, strict", `{"bench":"is","x":1}`, 0, true, false, http.StatusBadRequest},
		{"unknown field, lax", `{"bench":"is","x":1}`, 0, false, true, http.StatusOK},
		{"past the cap", `{"bench":"is"}`, 8, false, false, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
			var v struct {
				Bench string `json:"bench"`
			}
			ok := daemon.DecodeJSON(w, r, tc.max, tc.strict, "spec", &v)
			if ok != tc.wantOK || w.Code != tc.wantCode {
				t.Fatalf("DecodeJSON(%q) = %v, status %d (%s); want %v, status %d",
					tc.body, ok, w.Code, strings.TrimSpace(w.Body.String()), tc.wantOK, tc.wantCode)
			}
			if ok && v.Bench != "is" {
				t.Fatalf("decoded %+v, want bench is", v)
			}
		})
	}
}
