// Status polls against the journal: GET /v1/sessions/{id} shows only a
// (state, attempt) the session's journal records have already passed
// through, in the order they passed through them, and says terminal only
// once Session.Finished has closed — the same condition /result serves on.
package fleetd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"rpg2/internal/faults"
	"rpg2/internal/fleet"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
)

// statusStep is one (state, attempt) pair a session's records walk through.
type statusStep struct {
	state   string
	attempt int
}

// walk is the (state, attempt) sequence a session's records pass through: a
// record with a state sets the state, and the records that name an attempt
// (admission, retry scheduling, terminal records) set the attempt.
func walk(evs []fleet.Event) []statusStep {
	var out []statusStep
	var cur statusStep
	for _, e := range evs {
		if e.State != "" {
			cur.state = e.State
		}
		switch e.Type {
		case "queued", "admitted", "retry-scheduled", "session-done", "session-failed", "session-degraded":
			cur.attempt = e.Attempt
		}
		if len(out) == 0 || out[len(out)-1] != cur {
			out = append(out, cur)
		}
	}
	return out
}

func TestStatusFollowsTheJournal(t *testing.T) {
	srv, err := fleetd.New(fleetd.Config{Fleet: fleet.Config{
		Machine: machine.CascadeLake(), Workers: 4,
		Faults:     faults.New(faults.Config{Seed: 11, Rate: 0.3}),
		MaxRetries: 2, BreakerThreshold: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain() })

	// The sink is handed each record under the journal lock as it is
	// appended. It notes the record only after lingering on state edges,
	// failures and retries, which holds open the window in which a status
	// read from anywhere but the journal runs ahead of it.
	var mu sync.Mutex
	journaled := make(map[int][]fleet.Event)
	srv.Fleet().Journal().SetSink(func(e fleet.Event) {
		switch e.Type {
		case "state", "session-failed", "retry-scheduled":
			time.Sleep(200 * time.Microsecond)
		}
		mu.Lock()
		journaled[e.Session] = append(journaled[e.Session], e)
		mu.Unlock()
	})
	recorded := func(id int) []fleet.Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]fleet.Event(nil), journaled[id]...)
	}

	h := srv.Handler()
	submit := func(spec fleet.SpecRecord) int {
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
		var resp fleetd.SubmitResponse
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("submit %+v = %d %s", spec, rec.Code, rec.Body)
		}
		return resp.ID
	}
	poll := func(id int) fleetd.Status {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+strconv.Itoa(id), nil))
		var st fleetd.Status
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			t.Errorf("status %d = %d %s", id, rec.Code, rec.Body)
		}
		return st
	}

	pairs := []fleet.SpecRecord{{Bench: "is"}, {Bench: "cg"}, {Bench: "randacc"}, {Bench: "bfs", Input: "soc-gamma"}}
	var ids []int
	for i := 0; i < 16; i++ {
		spec := pairs[i%len(pairs)]
		spec.Seed = int64(300 + i)
		ids = append(ids, submit(spec))
	}
	handles := make(map[int]*fleet.Session)
	for _, s := range srv.Fleet().Sessions() {
		handles[s.ID] = s
	}

	var wg sync.WaitGroup
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := 0 // index into the walk of the last status polled
			for {
				st := poll(id)
				finished := false
				select {
				case <-handles[id].Finished():
					finished = true
				default:
				}
				steps := walk(recorded(id))
				seen := statusStep{st.State, st.Attempt}
				i := at
				for i < len(steps) && steps[i] != seen {
					i++
				}
				if i == len(steps) {
					t.Errorf("session %d: status shows %+v, which its records %v had not reached from %+v", id, seen, steps, steps[at])
					return
				}
				at = i
				if st.Terminal {
					if !finished {
						t.Errorf("session %d: status says terminal (%+v) before Finished closed", id, seen)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("session %d: status never turned terminal (last %+v)", id, st)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	retried := 0
	for _, id := range ids {
		if handles[id].Attempt() > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no session was retried; the batch does not exercise the retry window")
	}
}
