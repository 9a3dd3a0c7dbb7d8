package fleetd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
	rpgcore "rpg2/internal/rpg2"
)

// submitted is what a submit body carries, by an oracle independent of the
// daemon's decoder: exactly one JSON value (json.Valid) whose strict decode
// is a spec the daemon accepts. ok is false for a body the daemon must
// refuse.
func submitted(body []byte, maxBody int) (rec fleet.SpecRecord, ok bool) {
	if len(body) > maxBody || !json.Valid(body) {
		return rec, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&rec) != nil || rec.Bench == "" || rec.Kind > uint8(fleet.APTGETJob) {
		return rec, false
	}
	return rec, true
}

// FuzzFleetdSubmit posts arbitrary bodies to POST /v1/sessions through
// Handler(). The daemon's one worker is held inside a first session's
// profile stage for the whole run, so nothing submitted ever dispatches:
// each accepted session is read back from the queue and cancelled. A body
// the oracle decodes must get a 202 and queue exactly one session with
// exactly that spec; any other body must get a 400, or a 413 past the body
// cap, and queue nothing. A panic would answer 500. This daemon has no
// queue cap and never drains mid-run, so 429 and 503 cannot occur.
func FuzzFleetdSubmit(f *testing.F) {
	const maxBody = 512
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	srv, err := fleetd.New(fleetd.Config{
		Fleet: fleet.Config{
			Machine: machine.CascadeLake(), Workers: 1,
			Session: rpgcore.Config{FaultHook: func(stage string) error {
				if stage != "profile" {
					return nil
				}
				select {
				case entered <- struct{}{}:
				default:
				}
				<-gate
				return errors.New("fuzz run over")
			}},
		},
		MaxBodyBytes: maxBody,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		close(gate)
		srv.Drain()
	})
	if _, err := srv.Fleet().Submit(fleet.SessionSpec{Bench: "is", Seed: 1}); err != nil {
		f.Fatal(err)
	}
	<-entered
	h := srv.Handler()

	for _, body := range []string{
		`{"bench":"is"}`,
		`{"bench":"is"}` + "\n",
		`{"bench":"bfs","input":"soc-gamma","kind":2,"priority":3,"machine":"haswell","seed":7,"cold":true,"run_seconds":1.5,"candidates":[4,8],"tenant":"alice"}`,
		`{"bench":"is"}{"bench":"cg"}`,
		`{"bench":"is"} garbage`,
		`{"bench":"is","x":1}`,
		`{"bench":""}`,
		`{"bench":"is","kind":200}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := len(srv.Fleet().Sessions())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
		queued := srv.Fleet().Sessions()[before:]

		want, ok := submitted(body, maxBody)
		switch {
		case ok:
			if w.Code != http.StatusAccepted {
				t.Fatalf("body %q answered %d (%s), want 202", body, w.Code, w.Body)
			}
			var resp fleetd.SubmitResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("submit answer %q: %v", w.Body, err)
			}
			if len(queued) != 1 || queued[0].ID != resp.ID {
				t.Fatalf("body %q queued %d sessions, want one with ID %d", body, len(queued), resp.ID)
			}
			if got, want := fleet.RecordSpec(queued[0].Spec), fleet.RecordSpec(want.Spec()); !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q queued spec %+v, want %+v", body, got, want)
			}
			if n := srv.Fleet().CancelQueued(); n != 1 {
				t.Fatalf("cancelled %d queued sessions, want 1", n)
			}
		case len(body) > maxBody:
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body answered %d, want 400 or 413", len(body), w.Code)
			}
		case w.Code != http.StatusBadRequest:
			t.Fatalf("body %q answered %d (%s), want 400", body, w.Code, w.Body)
		}
		if !ok && len(queued) != 0 {
			t.Fatalf("refused body %q queued %d sessions", body, len(queued))
		}
	})
}
