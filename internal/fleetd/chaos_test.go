// Daemon chaos suite: the hardened HTTP front end under injected network
// faults — delays, 500s, severed response bodies, handler panics — driven
// through the real HTTP stack. The harness retries injected failures
// itself (the client library deliberately does not retry 500s: an
// injected 500 is indistinguishable from a real daemon bug, and hiding
// those from callers is not the transport's job).
package fleetd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpg2/internal/faults"
	"rpg2/internal/fleet"
	"rpg2/internal/fleetclient"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
)

// TestDaemonChaosNoSessionLost floods the daemon with work while every
// route suffers injected delays, 500s, and severed bodies. Every
// acknowledged submission must resolve to a terminal outcome, the daemon
// must stay healthy throughout, and the fault schedule must actually have
// fired.
func TestDaemonChaosNoSessionLost(t *testing.T) {
	inj := faults.NewNet(faults.NetConfig{
		Seed:       42,
		DelayRate:  0.05,
		Delay:      time.Millisecond,
		ErrorRate:  0.1,
		SeverRate:  0.1,
		SeverAfter: 8,
	})
	srv, cli := newTestDaemon(t, fleetd.Config{
		Fleet:     fleet.Config{Machine: machine.CascadeLake(), Workers: 2},
		NetFaults: inj,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Submit with a harness-level retry loop: injected 500s and severed
	// acks surface as errors the client does not absorb. A severed ack can
	// hide a successful admission, so the daemon may run more sessions
	// than the harness acknowledges — what must hold is that every
	// acknowledged ID is distinct and resolves.
	var ids []int
	seen := make(map[int]bool)
	for i := 0; i < 24; i++ {
		spec := tripSpecs[i%len(tripSpecs)]
		spec.Seed = int64(100 + i)
		var id int
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			id, err = cli.Submit(ctx, *fleet.RecordSpec(spec))
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("submit %d never succeeded under chaos: %v", i, err)
		}
		if seen[id] {
			t.Fatalf("daemon acknowledged session ID %d twice", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}

	// Wait absorbs poll failures by design, so it rides straight through
	// the chaos layer.
	for _, id := range ids {
		out, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatalf("session %d lost under chaos: %v", id, err)
		}
		if out.State == "" {
			t.Fatalf("session %d resolved with an empty outcome", id)
		}
	}

	if inj.Injected() == 0 {
		t.Fatal("net injector never fired; the chaos run exercised nothing")
	}
	// The daemon is still healthy after everything it absorbed.
	var status string
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if status, err = cli.Health(ctx); err == nil {
			break
		}
	}
	if err != nil || status != "ok" {
		t.Fatalf("daemon unhealthy after chaos: %q, %v", status, err)
	}
	if srv.Fleet().Snapshot().Completed == 0 {
		t.Fatal("no sessions completed under chaos")
	}
}

// TestDaemonPanicRecovery: a handler panic must not kill the daemon. The
// panic is journaled as a handler-panic event, counted in the snapshot,
// the panicking request gets a 500, the queued session the request
// addressed is marked Degraded (terminal — pollers stop waiting on it),
// and the daemon keeps serving.
func TestDaemonPanicRecovery(t *testing.T) {
	srv, cli := newTestDaemon(t, fleetd.Config{
		Fleet: fleet.Config{Machine: machine.CascadeLake(), Workers: 1},
		// One panic, on the first request the daemon sees.
		NetFaults: faults.NewNet(faults.NetConfig{Seed: 1, PanicRate: 1, MaxFaults: 1}),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Build a deep backlog in-process (no HTTP, so no fault draws) so the
	// last session is still queued when the panicking request lands.
	f := srv.Fleet()
	var last *fleet.Session
	for i := 0; i < 64; i++ {
		spec := tripSpecs[i%len(tripSpecs)]
		spec.Seed = int64(500 + i)
		s, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		last = s
	}

	// First HTTP request: the injector panics the handler. The recovery
	// middleware turns it into a 500 and degrades the addressed session.
	_, err := cli.Status(ctx, last.ID)
	var apiErr *fleetclient.APIError
	if !asAPIError(err, &apiErr) || apiErr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request surfaced %v, want HTTP 500", err)
	}
	if !strings.Contains(apiErr.Message, "panicked") {
		t.Fatalf("500 body %q does not name the panic", apiErr.Message)
	}

	// The daemon survived and keeps answering.
	if status, err := cli.Health(ctx); err != nil || status != "ok" {
		t.Fatalf("daemon did not survive the panic: %q, %v", status, err)
	}

	// The addressed session was evicted from the queue as Degraded —
	// terminal, so a waiter gets an answer instead of blocking forever.
	if st := last.State(); !st.Terminal() || st != fleet.Degraded {
		t.Fatalf("queued session addressed by the panic is %q, want degraded", st)
	}

	// The arc is visible: a fleet-level handler-panic event naming the
	// route, and the snapshot counter.
	var panicEvent *fleet.Event
	for _, e := range f.Journal().Events() {
		if e.Type == "handler-panic" {
			ev := e
			panicEvent = &ev
		}
	}
	if panicEvent == nil {
		t.Fatal("panic left no handler-panic journal event")
	}
	if want := "GET /v1/sessions/" + strconv.Itoa(last.ID); panicEvent.Reason != want {
		t.Fatalf("handler-panic names route %q, want %q", panicEvent.Reason, want)
	}
	if n := f.Snapshot().HandlerPanics; n != 1 {
		t.Fatalf("snapshot counts %d handler panics, want 1", n)
	}
	if !strings.Contains(f.Snapshot().Render(), "1 handler panics recovered") {
		t.Fatalf("Render hides the recovered panic:\n%s", f.Snapshot().Render())
	}

	f.Drain()
}

// asAPIError is errors.As without importing errors twice in every test.
func asAPIError(err error, target **fleetclient.APIError) bool {
	for err != nil {
		if ae, ok := err.(*fleetclient.APIError); ok {
			*target = ae
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestDaemonSeveredBodyIsDeterministic: a severed response delivers
// exactly SeverAfter body bytes before the connection dies — the injected
// failure is reproducible, not approximately truncated.
func TestDaemonSeveredBodyIsDeterministic(t *testing.T) {
	srv, err := fleetd.New(fleetd.Config{
		Fleet:     fleet.Config{Machine: machine.CascadeLake(), Workers: 1},
		NetFaults: faults.NewNet(faults.NetConfig{Seed: 5, SeverRate: 1, SeverAfter: 16, MaxFaults: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("severed request failed before headers: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("severed body read cleanly (%d bytes); want a mid-body failure", len(body))
	}
	if len(body) != 16 {
		t.Fatalf("severed body delivered %d bytes before dying, want exactly 16", len(body))
	}

	// The fault budget is spent; the next request is whole.
	resp2, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap fleet.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatalf("post-sever request still damaged: %v", err)
	}
}

// TestDaemonOversizedBodyRejected: MaxBodyBytes caps submissions with a
// 413, and the limit does not bleed into valid requests.
func TestDaemonOversizedBodyRejected(t *testing.T) {
	srv, err := fleetd.New(fleetd.Config{
		Fleet:        fleet.Config{Machine: machine.CascadeLake(), Workers: 1},
		MaxBodyBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := `{"bench":"` + strings.Repeat("x", 512) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d, want 413", resp.StatusCode)
	}

	ok, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"bench":"is","seed":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submit under the body cap got %d, want 202", ok.StatusCode)
	}
}

// TestHTTPServerRealTimeouts: the daemon's http.Server carries the
// daemon kit's real timeouts — none is left at net/http's zero (forever).
func TestHTTPServerRealTimeouts(t *testing.T) {
	srv, err := fleetd.New(fleetd.Config{
		Fleet: fleet.Config{Machine: machine.CascadeLake(), Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	hs := srv.HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("HTTPServer leaves a timeout unset: %+v", hs)
	}
}

// TestDaemonEventsStreamSurvivesWriteTimeout: the journal stream clears
// its per-response write deadline, so a stream outliving the server's
// WriteTimeout keeps delivering instead of dying mid-tail.
func TestDaemonEventsStreamSurvivesWriteTimeout(t *testing.T) {
	srv, err := fleetd.New(fleetd.Config{
		Fleet: fleet.Config{Machine: machine.CascadeLake(), Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.HTTPServer()
	hs.WriteTimeout = 250 * time.Millisecond
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = hs
	ts.Start()
	defer ts.Close()

	cli := fleetclient.New(fleetclient.Config{BaseURL: ts.URL})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Hold the stream open well past WriteTimeout before any work exists,
	// then submit: the late events must still arrive on the same stream.
	streamErr := make(chan error, 1)
	sawDone := make(chan struct{})
	go func() {
		streamErr <- cli.Stream(ctx, -1, func(e fleet.Event) error {
			if e.Type == "session-done" || e.Type == "session-failed" {
				select {
				case <-sawDone:
				default:
					close(sawDone)
				}
			}
			return nil
		})
	}()

	time.Sleep(600 * time.Millisecond) // two write-timeout windows of silence
	if _, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "is", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sawDone:
	case err := <-streamErr:
		t.Fatalf("stream died instead of delivering: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("stream never delivered the session's terminal event")
	}
	srv.Drain()
	if err := <-streamErr; err != nil {
		t.Fatalf("stream did not end cleanly after drain: %v", err)
	}
}
