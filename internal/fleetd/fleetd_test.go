// Daemon acceptance tests, driven through the real HTTP stack: an
// httptest listener on the daemon's handler and the fleetclient library
// on the other side — nothing here calls the fleet directly except to
// build the in-process baseline the round-trip test compares against.
package fleetd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetclient"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
)

// tripSpecs are the workloads the round-trip test replays on both paths;
// the repeated "is" pair makes the second session warm, so the comparison
// also covers store-seeded outcomes.
var tripSpecs = []fleet.SessionSpec{
	{Bench: "is", Seed: 7},
	{Bench: "cg", Seed: 11},
	{Bench: "bfs", Input: "soc-gamma", Seed: 13},
	{Bench: "is", Seed: 21},
}

func newTestDaemon(t *testing.T, cfg fleetd.Config) (*fleetd.Server, *fleetclient.Client) {
	t.Helper()
	srv, err := fleetd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Drain() })
	return srv, fleetclient.New(fleetclient.Config{BaseURL: ts.URL})
}

// TestDaemonRoundTripMatchesInProcess is the determinism acceptance test:
// the same spec and seed must yield byte-identical Outcome JSON whether
// the session ran through the daemon's HTTP path or in-process. Sessions
// run one at a time on both sides so the store evolves identically.
func TestDaemonRoundTripMatchesInProcess(t *testing.T) {
	cfg := fleet.Config{Machine: machine.CascadeLake(), Workers: 1}

	inProc := fleet.New(cfg)
	defer inProc.Close()
	var want [][]byte
	for _, spec := range tripSpecs {
		s, err := inProc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		inProc.Drain()
		b, err := json.Marshal(fleetd.OutcomeOf(s))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}

	_, cli := newTestDaemon(t, fleetd.Config{Fleet: cfg})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, spec := range tripSpecs {
		id, err := cli.Submit(ctx, *fleet.RecordSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		out, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("spec %d (%s/%s seed %d) daemon outcome differs from in-process:\n daemon: %s\n local:  %s",
				i, spec.Bench, spec.Input, spec.Seed, got, want[i])
		}
	}
}

// TestTenantBackpressureIsolation: with a one-worker fleet and a
// two-deep per-tenant queue cap, a tenant bursting submissions sees 429
// with a positive Retry-After, while another tenant's submissions are
// admitted untouched and run to completion.
func TestTenantBackpressureIsolation(t *testing.T) {
	_, cli := newTestDaemon(t, fleetd.Config{Fleet: fleet.Config{
		Machine: machine.CascadeLake(), Workers: 1, MaxTenantQueue: 2,
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var accepted []int
	rejected := 0
	for i := 0; i < 16; i++ {
		id, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "is", Tenant: "alice", Seed: int64(i + 1)})
		var over *fleetclient.Overloaded
		switch {
		case err == nil:
			accepted = append(accepted, id)
		case errors.As(err, &over):
			rejected++
			if over.RetryAfter < time.Second {
				t.Fatalf("429 carried Retry-After %s, want >= 1s", over.RetryAfter)
			}
		default:
			t.Fatalf("alice submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatal("16 burst submissions against a 2-deep tenant queue never saw 429")
	}

	// Bob's trickle is isolated from alice's saturation: no rejection.
	for i := 0; i < 2; i++ {
		id, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "cg", Tenant: "bob", Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("bob submit while alice saturated: %v", err)
		}
		accepted = append(accepted, id)
	}

	for _, id := range accepted {
		out, err := cli.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %d: %v", id, err)
		}
		if out.State == fleet.Failed.String() {
			t.Fatalf("session %d failed: %s", id, out.Err)
		}
	}
}

// TestAPIErrors pins the error surface a client programs against:
// unknown IDs are ErrNotFound, malformed specs are 400s.
func TestAPIErrors(t *testing.T) {
	_, cli := newTestDaemon(t, fleetd.Config{Fleet: fleet.Config{
		Machine: machine.CascadeLake(), Workers: 1,
	}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if _, err := cli.Status(ctx, 999); !errors.Is(err, fleetclient.ErrNotFound) {
		t.Fatalf("status of unknown session = %v, want ErrNotFound", err)
	}
	if _, _, err := cli.Result(ctx, 999); !errors.Is(err, fleetclient.ErrNotFound) {
		t.Fatalf("result of unknown session = %v, want ErrNotFound", err)
	}
	var apiErr *fleetclient.APIError
	if _, err := cli.Submit(ctx, fleet.SpecRecord{}); !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
		t.Fatalf("benchless submit = %v, want 400", err)
	}
	if _, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "is", Kind: 200}); !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
		t.Fatalf("unknown-kind submit = %v, want 400", err)
	}
}

// TestSubmitRefusesPriority: sessions no longer carry an admission
// priority, and the submit decode is strict, so a spec that still sends
// one is refused with a 400 naming the field, and nothing is queued.
func TestSubmitRefusesPriority(t *testing.T) {
	srv, _ := newTestDaemon(t, fleetd.Config{Fleet: fleet.Config{
		Machine: machine.CascadeLake(), Workers: 1,
	}})
	w := httptest.NewRecorder()
	body := bytes.NewReader([]byte(`{"bench":"is","seed":1,"priority":10}`))
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", body))
	if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte(`priority`)) {
		t.Fatalf("submit with a priority answered %d (%s), want 400 naming the field", w.Code, w.Body)
	}
	if n := len(srv.Fleet().Sessions()); n != 0 {
		t.Fatalf("refused submit queued %d sessions", n)
	}
}

// TestDrainEndsStreamsAndRefusesSubmits: a drain delivers the full
// journal to open streams, ends them cleanly (Stream returns nil), and
// turns later submissions into 503s. The streamed history must be dense.
func TestDrainEndsStreamsAndRefusesSubmits(t *testing.T) {
	srv, cli := newTestDaemon(t, fleetd.Config{Fleet: fleet.Config{
		Machine: machine.CascadeLake(), Workers: 2,
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var ids []int
	for i := 0; i < 4; i++ {
		id, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "is", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	streamed := make(chan []int, 1)
	streamErr := make(chan error, 1)
	go func() {
		var seqs []int
		err := cli.Stream(ctx, -1, func(e fleet.Event) error {
			seqs = append(seqs, e.Seq)
			return nil
		})
		streamed <- seqs
		streamErr <- err
	}()

	for _, id := range ids {
		if _, err := cli.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()

	if err := <-streamErr; err != nil {
		t.Fatalf("drained stream returned %v, want clean nil EOF", err)
	}
	seqs := <-streamed
	total := len(srv.Fleet().Journal().Events())
	if len(seqs) != total {
		t.Fatalf("stream delivered %d events, journal holds %d", len(seqs), total)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("stream seq[%d] = %d: gap or duplicate", i, s)
		}
	}

	var apiErr *fleetclient.APIError
	if _, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "is", Seed: 99}); !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %v, want 503", err)
	}
	if status, err := cli.Health(ctx); err != nil || status != "draining" {
		t.Fatalf("health after drain = %q, %v", status, err)
	}
}

// TestStreamResumeAfterDisconnect: a consumer that aborts mid-stream and
// reconnects with its last cursor sees the remainder exactly once.
func TestStreamResumeAfterDisconnect(t *testing.T) {
	srv, cli := newTestDaemon(t, fleetd.Config{Fleet: fleet.Config{
		Machine: machine.CascadeLake(), Workers: 2,
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var ids []int
	for i := 0; i < 4; i++ {
		id, err := cli.Submit(ctx, fleet.SpecRecord{Bench: "cg", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := cli.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	// First connection: take three events, then abort (a client-side
	// disconnect), remembering only the cursor.
	abort := errors.New("enough")
	var seen []int
	err := cli.Stream(ctx, -1, func(e fleet.Event) error {
		seen = append(seen, e.Seq)
		if len(seen) == 3 {
			return abort
		}
		return nil
	})
	if !errors.Is(err, abort) {
		t.Fatalf("aborted stream returned %v", err)
	}

	// Reconnect from the cursor; drain so the stream terminates.
	done := make(chan error, 1)
	go func() {
		done <- cli.Stream(ctx, seen[len(seen)-1], func(e fleet.Event) error {
			seen = append(seen, e.Seq)
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Drain()
	if err := <-done; err != nil {
		t.Fatalf("resumed stream returned %v", err)
	}

	total := len(srv.Fleet().Journal().Events())
	if len(seen) != total {
		t.Fatalf("across the reconnect saw %d events, journal holds %d", len(seen), total)
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("resumed seq[%d] = %d: gap or duplicate across reconnect", i, s)
		}
	}
}

// TestResumeCleanStateDirKeepsStore: resuming over a cleanly closed state
// dir — nothing left pending — keeps the committed profiles and serves the
// finished sessions' outcomes under their old IDs, instead of opening a
// fresh epoch over an empty store.
func TestResumeCleanStateDirKeepsStore(t *testing.T) {
	cfg := fleet.Config{Machine: machine.CascadeLake(), Workers: 1, StateDir: t.TempDir()}
	f := fleet.New(cfg)
	if _, err := f.Run(tripSpecs[:2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want := f.Store().Len()
	if want == 0 {
		t.Fatal("the first run committed no profiles; the case is vacuous")
	}

	srv, cli := newTestDaemon(t, fleetd.Config{Fleet: cfg, Resume: true})
	if got := srv.Fleet().Store().Len(); got != want {
		t.Fatalf("resumed daemon holds %d store entries, want %d", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cli.Status(ctx, 0); err != nil {
		t.Fatalf("pre-restart session 0 is not pollable: %v", err)
	}
}
