// Held result requests: GET /v1/sessions/{id}/result?wait=<duration> is
// answered when the journal says the session finished, not when the next
// poll happens to land.
package fleetd_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetclient"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
	"rpg2/internal/wal"
)

// parkedDaemon is a one-worker daemon whose sessions stop inside the
// controller (at the profile stage) until release is called — so a test can
// put a request in flight against a session it knows is unfinished. A send
// on step lets one parked attempt go on alone, and the first failFirst
// attempts fail when they do.
type parkedDaemon struct {
	srv       *fleetd.Server
	ts        *httptest.Server
	cli       *fleetclient.Client
	entered   chan struct{}
	release   func()
	step      chan struct{}
	failFirst atomic.Int32
	inFlight  atomic.Int32 // requests inside the daemon's handler
}

func newParkedDaemon(t *testing.T, cfg fleetd.Config) *parkedDaemon {
	t.Helper()
	d := &parkedDaemon{entered: make(chan struct{}, 16), step: make(chan struct{})}
	gate := make(chan struct{})
	var once sync.Once
	d.release = func() { once.Do(func() { close(gate) }) }
	cfg.Fleet.Machine, cfg.Fleet.Workers = machine.CascadeLake(), 1
	cfg.Fleet.Session = rpgcore.Config{FaultHook: func(stage string) error {
		if stage == "profile" {
			d.entered <- struct{}{}
			select {
			case <-gate:
			case <-d.step:
			}
			if d.failFirst.Add(-1) >= 0 {
				return errors.New("injected profile failure")
			}
		}
		return nil
	}}
	var err error
	if d.srv, err = fleetd.New(cfg); err != nil {
		t.Fatal(err)
	}
	handler := d.srv.Handler()
	d.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.inFlight.Add(1)
		defer d.inFlight.Add(-1)
		handler.ServeHTTP(w, r)
	}))
	d.cli = fleetclient.New(fleetclient.Config{BaseURL: d.ts.URL, PollInterval: time.Minute})
	t.Cleanup(func() {
		d.release()
		d.srv.Drain()
		d.ts.Close()
	})
	return d
}

func (d *parkedDaemon) submit(t *testing.T, seed int64) int {
	t.Helper()
	id, err := d.cli.Submit(context.Background(), fleet.SpecRecord{Bench: "is", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// result issues one raw result request and reports the status code, the
// decoded body and how long the daemon took to answer.
func (d *parkedDaemon) result(ctx context.Context, t *testing.T, id int, query string) (int, map[string]any, time.Duration) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/v1/sessions/"+strconv.Itoa(id)+"/result"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, time.Since(start)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("decode result body: %v", err)
	}
	return resp.StatusCode, body, time.Since(start)
}

// terminalAt watches the daemon's journal and reports when the session's
// terminal record was journaled.
func terminalAt(srv *fleetd.Server, id int) <-chan time.Time {
	at := make(chan time.Time, 1)
	j := srv.Fleet().Journal()
	wake := j.Watch()
	go func() {
		defer j.Unwatch(wake)
		cursor := -1
		for range wake {
			for _, e := range j.EventsSince(cursor) {
				cursor = e.Seq
				if e.Session == id && e.Type == "session-done" {
					at <- time.Now()
					return
				}
			}
		}
	}()
	return at
}

// TestHeldResultAnswersAtTheTerminalRecord: a held request — and Client.Wait,
// which is a loop over one — comes back within milliseconds of the session
// finishing and carries the report, with a client whose PollInterval is a
// minute: nothing here can be a poll.
func TestHeldResultAnswersAtTheTerminalRecord(t *testing.T) {
	d := newParkedDaemon(t, fleetd.Config{})
	id := d.submit(t, 1)
	<-d.entered
	finished := terminalAt(d.srv, id)

	type answer struct {
		code int
		body map[string]any
		at   time.Time
	}
	raw := make(chan answer, 1)
	go func() {
		code, body, _ := d.result(context.Background(), t, id, "?wait=1m")
		raw <- answer{code, body, time.Now()}
	}()
	type waited struct {
		out fleetd.Outcome
		err error
		at  time.Time
	}
	viaClient := make(chan waited, 1)
	go func() {
		out, err := d.cli.Wait(context.Background(), id)
		viaClient <- waited{out, err, time.Now()}
	}()

	time.Sleep(50 * time.Millisecond) // both requests are held on the parked session by now
	select {
	case a := <-raw:
		t.Fatalf("held request answered %d before the session finished", a.code)
	case w := <-viaClient:
		t.Fatalf("Wait returned (%+v, %v) before the session finished", w.out, w.err)
	default:
	}
	d.release()
	done := <-finished

	const prompt = 250 * time.Millisecond // an idle machine answers in well under 5ms
	a := <-raw
	if a.code != http.StatusOK || a.body["report"] == nil {
		t.Fatalf("held result = %d %v, want 200 with the report", a.code, a.body)
	}
	if lag := a.at.Sub(done); lag > prompt {
		t.Fatalf("held result came %v after the terminal record", lag)
	}
	w := <-viaClient
	if w.err != nil || w.out.Report == nil || w.out.State != fleet.Done.String() {
		t.Fatalf("Wait = %+v, %v; want a done outcome with its report", w.out, w.err)
	}
	if lag := w.at.Sub(done); lag > prompt {
		t.Fatalf("Wait returned %v after the terminal record", lag)
	}
}

// TestHeldResultWaitsOutARetry: a failed attempt the retry lane takes back is
// not an outcome. The session's state reads failed (terminal) until the lane
// re-queues it, and its session-failed record is journaled, yet the held
// request and Wait stay held through the second attempt and answer with that
// attempt's result.
func TestHeldResultWaitsOutARetry(t *testing.T) {
	// Durable, so the first attempt's session-failed is an fsync: time for a
	// hold released by state to see "failed" before the lane re-queues.
	d := newParkedDaemon(t, fleetd.Config{Fleet: fleet.Config{
		MaxRetries: 1, StateDir: t.TempDir(), Fsync: wal.SyncAlways,
	}})
	d.failFirst.Store(1)
	id := d.submit(t, 1)
	<-d.entered // attempt 0 is parked, about to fail

	raw := make(chan map[string]any, 1)
	go func() {
		code, body, _ := d.result(context.Background(), t, id, "?wait=1m")
		body["code"] = float64(code)
		raw <- body
	}()
	viaClient := make(chan fleetd.Outcome, 1)
	go func() {
		out, err := d.cli.Wait(context.Background(), id)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		viaClient <- out
	}()
	for d.inFlight.Load() < 2 { // both requests are held
		time.Sleep(time.Millisecond)
	}
	d.step <- struct{}{}
	<-d.entered // attempt 0 has failed and been retried; attempt 1 is parked

	failed := false
	for _, e := range d.srv.Fleet().Journal().SessionEvents(id) {
		failed = failed || e.Type == "session-failed"
	}
	if !failed {
		t.Fatal("the second attempt is running but no session-failed was journaled for the first")
	}
	time.Sleep(50 * time.Millisecond)
	select {
	case body := <-raw:
		t.Fatalf("held request answered %v with a retry still running", body)
	case out := <-viaClient:
		t.Fatalf("Wait returned %+v with a retry still running", out)
	default:
	}
	// An unheld fetch is no different: nothing to serve until the last record.
	if code, body, _ := d.result(context.Background(), t, id, ""); code != http.StatusAccepted {
		t.Fatalf("result with a retry still running = %d %v, want 202", code, body)
	}
	d.release()

	body := <-raw
	if body["code"] != float64(http.StatusOK) || body["state"] != fleet.Done.String() || body["attempt"] != float64(1) || body["report"] == nil {
		t.Fatalf("held result = %v, want 200 with the second attempt's done outcome", body)
	}
	if out := <-viaClient; out.State != fleet.Done.String() || out.Attempt != 1 || out.Err != "" || out.Report == nil {
		t.Fatalf("Wait = %+v, want the second attempt's done outcome", out)
	}
}

// TestHeldResultGivesUpWith202: the hold ends with today's 202 poll view when
// the wait runs out or the request's own deadline does, and a missing,
// malformed or non-positive wait holds nothing at all.
func TestHeldResultGivesUpWith202(t *testing.T) {
	d := newParkedDaemon(t, fleetd.Config{RequestTimeout: 150 * time.Millisecond})
	id := d.submit(t, 1)
	<-d.entered
	ctx := context.Background()

	for _, q := range []string{"", "?wait=", "?wait=soon", "?wait=-5s", "?wait=0"} {
		code, body, took := d.result(ctx, t, id, q)
		if code != http.StatusAccepted || body["terminal"] != false {
			t.Fatalf("result%s on a running session = %d %v, want the 202 poll view", q, code, body)
		}
		if took > 100*time.Millisecond {
			t.Fatalf("result%s was held for %v", q, took)
		}
	}
	code, body, took := d.result(ctx, t, id, "?wait=40ms")
	if code != http.StatusAccepted || body["state"] == nil {
		t.Fatalf("expired hold = %d %v, want the 202 poll view", code, body)
	}
	if took < 40*time.Millisecond {
		t.Fatalf("a 40ms hold on a running session was answered after %v", took)
	}
	// The request deadline (150ms here) ends a longer hold the same way.
	code, _, took = d.result(ctx, t, id, "?wait=1m")
	if code != http.StatusAccepted {
		t.Fatalf("hold past the request deadline = %d, want 202", code)
	}
	if took < 100*time.Millisecond || took > 5*time.Second {
		t.Fatalf("hold past a 150ms request deadline lasted %v", took)
	}
}

// TestHeldResultReleasedByDrainAndCancel: a client that goes away frees its
// held request at once, and Drain answers a held request on a queued
// session with the cancellation it journals — both while the session ahead
// is still parked in flight.
func TestHeldResultReleasedByDrainAndCancel(t *testing.T) {
	d := newParkedDaemon(t, fleetd.Config{})
	running := d.submit(t, 1)
	<-d.entered
	queued := d.submit(t, 2)

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		d.result(ctx, t, running, "?wait=1m")
	}()
	for d.inFlight.Load() == 0 { // the request has reached the handler
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-gone
	for deadline := time.Now().Add(5 * time.Second); d.inFlight.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a held request outlived its client")
		}
	}

	held := make(chan int, 1)
	var body map[string]any
	go func() {
		var code int
		code, body, _ = d.result(context.Background(), t, queued, "?wait=1m")
		held <- code
	}()
	for d.inFlight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		d.srv.Drain()
	}()
	select {
	case code := <-held:
		if code != http.StatusOK || body["state"] != fleet.Failed.String() || body["error"] != fleet.ErrCanceled.Error() {
			t.Fatalf("held result on a drained queue = %d %v, want the journaled cancellation", code, body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not release the held request")
	}
	select {
	case <-drained:
		t.Fatal("Drain finished with a session still parked in flight")
	default:
	}
	d.release()
	<-drained
}
