// Package fleetd puts the fleet behind a network: an HTTP/JSON front end
// wrapping fleet.Fleet, so profiles can be captured at the edge, POSTed to
// a central curator, and served back — the client/server shape production
// PGO pipelines use once cheap always-on collection has to flow through a
// shared serving tier. The daemon owns one Fleet (fresh or recovered from
// a PR 4 state dir), exposes session submission, polling, result fetch,
// a metrics snapshot, and a resumable journal event stream, and turns the fleet's backpressure rejections into
// HTTP 429 with a throughput-derived Retry-After.
//
// The wire format for specs is fleet.SpecRecord — the same JSON-safe
// projection the WAL persists — so a spec means exactly the same thing
// submitted over the network, replayed from a crash, or run in-process.
package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpg2/internal/baselines"
	"rpg2/internal/daemon"
	"rpg2/internal/faults"
	"rpg2/internal/fleet"
	rpgcore "rpg2/internal/rpg2"
)

// Config tunes a daemon. Fleet is passed through to fleet.New (or
// fleet.Recover when Resume finds a state dir), so all persistence and
// backpressure knobs live there.
type Config struct {
	// Fleet is the wrapped fleet's configuration.
	Fleet fleet.Config
	// Resume recovers Fleet.StateDir (when it exists) instead of starting
	// fresh: committed profiles and breaker posture survive, and sessions
	// a crash left unfinished are re-admitted and stay pollable under
	// their pre-crash IDs.
	Resume bool
	// RetryAfterCap bounds the Retry-After header on 429 responses, in
	// seconds (default 30).
	RetryAfterCap int

	// NetFaults injects deterministic network faults (delays, 500s, severed
	// response bodies, handler panics) into the daemon's request path, keyed
	// by (seed, route, request ordinal). Nil disables injection and the
	// request path is byte-identical to a daemon built without the knob.
	NetFaults *faults.NetInjector
	// RequestTimeout bounds each non-streaming request with a context
	// deadline (0 or less: the default 30s). The /v1/events stream is
	// exempt — it is long-lived by design.
	RequestTimeout time.Duration
	// MaxBodyBytes caps POST bodies via http.MaxBytesReader (0 or less:
	// the default 1 MiB). Oversized submissions get 413.
	MaxBodyBytes int64
}

// Server is the daemon: one fleet behind an http.Handler. Create with New,
// serve Handler(), stop with Drain.
type Server struct {
	fleet    *fleet.Fleet
	recovery *fleet.Recovery
	mux      *http.ServeMux
	retryCap int

	netFaults  *faults.NetInjector
	reqTimeout time.Duration
	maxBody    int64

	draining  atomic.Bool
	drainOnce sync.Once
	drainDone chan struct{}

	mu       sync.Mutex
	sessions map[int]registered
}

// registered is one pollable session ID: a live handle, or the distilled
// pre-crash record of a session that finished before a restart.
type registered struct {
	live *fleet.Session
	rec  *fleet.RecoveredSession
}

// New starts a daemon over a fresh or recovered fleet. With cfg.Resume and
// an existing state dir, the fleet is rebuilt via fleet.Recover: terminal
// pre-crash sessions keep answering polls from their journaled outcomes,
// unfinished ones are re-admitted and tracked live under both their old
// and new IDs.
func New(cfg Config) (*Server, error) {
	s := &Server{
		retryCap:   cfg.RetryAfterCap,
		netFaults:  cfg.NetFaults,
		reqTimeout: cfg.RequestTimeout,
		maxBody:    cfg.MaxBodyBytes,
		drainDone:  make(chan struct{}),
		sessions:   make(map[int]registered),
	}
	if s.retryCap <= 0 {
		s.retryCap = 30
	}
	if _, err := os.Stat(cfg.Fleet.StateDir); cfg.Resume && cfg.Fleet.StateDir != "" && err == nil {
		f, rec, err := fleet.Recover(cfg.Fleet.StateDir, cfg.Fleet)
		if err != nil {
			return nil, err
		}
		s.fleet, s.recovery = f, rec
		for i := range rec.Records {
			r := &rec.Records[i]
			if r.Session != nil {
				s.sessions[r.OldID] = registered{live: r.Session}
				s.sessions[r.Session.ID] = registered{live: r.Session}
			} else {
				s.sessions[r.OldID] = registered{rec: r}
			}
		}
	} else {
		s.fleet = fleet.New(cfg.Fleet)
	}
	s.routes()
	return s, nil
}

// Fleet exposes the wrapped fleet (tests and embedders).
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// Recovery reports what a resumed daemon salvaged (nil for fresh starts).
func (s *Server) Recovery() *fleet.Recovery { return s.recovery }

// Handler returns the daemon's HTTP API inside the daemon kit's hardening
// stack (panic recovery outermost, then the per-request deadline) with —
// only when Config.NetFaults is set — the chaos layer innermost. A
// recovered panic is journaled as a fleet-level "handler-panic" event and
// the session the request addressed (if still queued) is parked Degraded,
// so pollers see a terminal state instead of hanging forever. The events
// stream is exempt from the deadline: it is long-lived by contract.
func (s *Server) Handler() http.Handler {
	return daemon.Harden(s.withChaos(s.mux), daemon.Hardening{
		Timeout: s.reqTimeout,
		Exempt:  func(r *http.Request) bool { return r.URL.Path == "/v1/events" },
		OnPanic: func(r *http.Request, p any) {
			s.fleet.RecordPanic(routeKey(r), fmt.Sprint(p))
			if id, ok := pathSessionID(r.URL.Path); ok {
				s.fleet.DegradeQueued(id)
			}
		},
	})
}

// HTTPServer wraps Handler in the kit's http.Server (real timeouts).
// Callers still own ListenAndServe/Serve and Shutdown.
func (s *Server) HTTPServer() *http.Server { return daemon.HTTPServer(s.Handler()) }

// routeKey is the fault-injection and journal key for a request. It uses
// the raw URL path, not the mux pattern, so ordinals advance per concrete
// route the same way the client-side injector counts them.
func routeKey(r *http.Request) string { return r.Method + " " + r.URL.Path }

// pathSessionID extracts the {id} segment from /v1/sessions/{id}[/...].
// The recovery middleware sits outside the mux, so PathValue is not
// populated yet and the path is parsed by hand.
func pathSessionID(path string) (int, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return 0, false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	id, err := strconv.Atoi(rest)
	return id, err == nil
}

// severWriter delivers exactly `remaining` more body bytes, then aborts
// the connection mid-response with http.ErrAbortHandler — the injected
// "server died mid-body" failure clients must survive.
type severWriter struct {
	http.ResponseWriter
	remaining int
}

func (s *severWriter) Write(b []byte) (int, error) {
	if len(b) >= s.remaining {
		s.ResponseWriter.Write(b[:s.remaining])
		if f, ok := s.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	s.remaining -= len(b)
	return s.ResponseWriter.Write(b)
}

func (s *severWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

func (s *severWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withChaos is the daemon-side network fault layer. Each request draws at
// most one fault from the injector, keyed by (seed, route, ordinal):
// a delay before dispatch, an injected 500, a response severed after
// SeverAfter body bytes, or a handler panic (which then exercises the
// kit's panic recovery end to end). A nil injector returns next unchanged, so
// the zero-knob path has no wrapper at all.
func (s *Server) withChaos(next http.Handler) http.Handler {
	if s.netFaults == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := s.netFaults.Decide(routeKey(r))
		switch f.Kind {
		case faults.NetDelay:
			t := time.NewTimer(f.Delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		case faults.NetError:
			daemon.WriteErr(w, http.StatusInternalServerError, "%v", f.Err())
			return
		case faults.NetSever:
			w = &severWriter{ResponseWriter: w, remaining: f.SeverAfter}
		case faults.NetPanic:
			panic(fmt.Sprintf("injected chaos panic on %s", routeKey(r)))
		}
		next.ServeHTTP(w, r)
	})
}

// DrainStats reports what a graceful shutdown did.
type DrainStats struct {
	// Cancelled is how many queued sessions were failed with ErrCanceled
	// before they ran; in-flight sessions finished normally.
	Cancelled int `json:"cancelled"`
}

// Drain is the graceful shutdown: new submissions get 503, queued
// sessions journal as cancelled, in-flight sessions finish, the WAL
// flushes, and event streams end after delivering everything. Idempotent;
// concurrent calls all block until the first finishes.
func (s *Server) Drain() DrainStats {
	var st DrainStats
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		st.Cancelled = s.fleet.CancelQueued()
		s.fleet.Drain()
		s.fleet.Close()
		close(s.drainDone)
	})
	<-s.drainDone
	return st
}

// Status is the poll endpoint's view of one session.
type Status struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	Terminal   bool   `json:"terminal"`
	Warm       bool   `json:"warm,omitempty"`
	Translated bool   `json:"translated,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	Err        string `json:"error,omitempty"`
}

// Outcome is a terminal session's result — deliberately free of
// wall-clock times and fleet-assigned IDs, so the same spec and seed
// produce byte-identical Outcome JSON whether the session ran in-process
// or through the daemon (the round-trip determinism the tests pin).
type Outcome struct {
	State       string                  `json:"state"`
	Warm        bool                    `json:"warm,omitempty"`
	Translated  bool                    `json:"translated,omitempty"`
	Attempt     int                     `json:"attempt,omitempty"`
	Err         string                  `json:"error,omitempty"`
	Report      *rpgcore.Report         `json:"report,omitempty"`
	Measurement *rpgcore.Measurement    `json:"measurement,omitempty"`
	Sweep       *baselines.Sweep        `json:"sweep,omitempty"`
	Candidates  []int                   `json:"candidates,omitempty"`
	Distance    int                     `json:"distance,omitempty"`
	Tail        []rpgcore.TimelinePoint `json:"tail,omitempty"`
}

// OutcomeOf distils a session's terminal result into the wire form.
func OutcomeOf(sess *fleet.Session) Outcome {
	o := Outcome{
		State:       sess.State().String(),
		Warm:        sess.Warm(),
		Translated:  sess.Translated(),
		Attempt:     sess.Attempt(),
		Report:      sess.Report(),
		Measurement: sess.Measurement(),
		Sweep:       sess.SweepResult(),
		Candidates:  sess.Candidates(),
		Distance:    sess.Distance(),
		Tail:        sess.Tail(),
	}
	if err := sess.Err(); err != nil {
		o.Err = err.Error()
	}
	return o
}

// SubmitResponse acknowledges an accepted session.
type SubmitResponse struct {
	ID    int    `json:"id"`
	State string `json:"state"`
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/healthz", daemon.Health(&s.draining))
}

// retryAfter estimates how long a rejected submitter should wait before
// trying again: the queue depth that tripped the cap, spread over the
// worker pool, at the fleet's observed median session latency — clamped
// to [1, RetryAfterCap] seconds so the header is always a sane integer.
func (s *Server) retryAfter(depth int) int {
	snap := s.fleet.Snapshot()
	p50 := snap.P50Wall
	if p50 <= 0 {
		p50 = 0.1
	}
	workers := snap.Workers
	if workers <= 0 {
		workers = 1
	}
	secs := int(math.Ceil(float64(depth) / float64(workers) * p50))
	if secs < 1 {
		secs = 1
	}
	if secs > s.retryCap {
		secs = s.retryCap
	}
	return secs
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		daemon.WriteErr(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	var rec fleet.SpecRecord
	if !daemon.DecodeJSON(w, r, s.maxBody, true, "spec", &rec) {
		return
	}
	if rec.Bench == "" {
		daemon.WriteErr(w, http.StatusBadRequest, "spec needs a bench")
		return
	}
	if rec.Kind > uint8(fleet.APTGETJob) {
		daemon.WriteErr(w, http.StatusBadRequest, "unknown job kind %d", rec.Kind)
		return
	}
	sess, err := s.fleet.Submit(rec.Spec())
	var over *fleet.OverloadError
	switch {
	case errors.As(err, &over):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(over.Depth)))
		daemon.WriteErr(w, http.StatusTooManyRequests, "%v", over)
		return
	case errors.Is(err, fleet.ErrClosed):
		daemon.WriteErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		daemon.WriteErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mu.Lock()
	s.sessions[sess.ID] = registered{live: sess}
	s.mu.Unlock()
	v, _ := s.fleet.Journal().View(sess.ID)
	daemon.WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: sess.ID, State: v.State})
}

// session resolves the request's {id} to its registered handle or record,
// answering 400/404 itself when it cannot.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (int, registered, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		daemon.WriteErr(w, http.StatusBadRequest, "bad session id")
		return 0, registered{}, false
	}
	s.mu.Lock()
	reg, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		daemon.WriteErr(w, http.StatusNotFound, "no session %d", id)
	}
	return id, reg, ok
}

// statusOf is the poll view: the session as its journaled records tell it
// (a pre-crash session's from the recovered journal), terminal once its last
// record is journaled (Session.Finished), the one condition /result serves
// on. Finished is read before the records, so a terminal status always
// carries its terminal state.
func (s *Server) statusOf(id int, reg registered) Status {
	v, terminal := fleet.SessionView{}, true
	if reg.live != nil {
		terminal = finished(reg.live)
		v, _ = s.fleet.Journal().View(reg.live.ID)
	} else {
		v = reg.rec.SessionView
	}
	return Status{
		ID: id, State: v.State, Terminal: terminal,
		Warm: v.Warm, Translated: v.Translated, Attempt: v.Attempt, Err: v.Err,
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if id, reg, ok := s.session(w, r); ok {
		daemon.WriteJSON(w, http.StatusOK, s.statusOf(id, reg))
	}
}

// maxResultWait caps how long a result request is held (?wait=): far enough
// inside the kit's 30 s request deadline that a hold which runs out is
// answered with the 202 poll view, not cut off.
const maxResultWait = 20 * time.Second

// finished reports whether the session's last terminal record has been
// journaled (fleet.Session.Finished) — the one condition a result is served
// on, so an outcome a client was told is on disk, and is the last attempt's.
func finished(sess *fleet.Session) bool {
	select {
	case <-sess.Finished():
		return true
	default:
		return false
	}
}

// heldUntilFinished is finished after holding a request that asked to wait
// (?wait=<duration>, capped at maxResultWait) for it; the hold also ends when
// the wait runs out, the request's context ends or the daemon drains. A
// missing or malformed wait holds nothing.
func (s *Server) heldUntilFinished(r *http.Request, sess *fleet.Session) bool {
	if wait, err := time.ParseDuration(r.URL.Query().Get("wait")); err == nil && wait > 0 {
		timer := time.NewTimer(min(wait, maxResultWait))
		defer timer.Stop()
		select {
		case <-sess.Finished():
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.drainDone:
		}
	}
	return finished(sess)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, reg, ok := s.session(w, r)
	if !ok {
		return
	}
	if reg.live != nil {
		if !s.heldUntilFinished(r, reg.live) {
			// Not done yet: hand back the poll view instead of a result,
			// with 202 so clients can tell "keep waiting" from an error.
			daemon.WriteJSON(w, http.StatusAccepted, s.statusOf(id, reg))
			return
		}
		daemon.WriteJSON(w, http.StatusOK, OutcomeOf(reg.live))
		return
	}
	v := reg.rec.SessionView
	daemon.WriteJSON(w, http.StatusOK, Outcome{
		State: v.State, Warm: v.Warm, Translated: v.Translated,
		Attempt: v.Attempt, Err: v.Err, Report: v.Report,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, s.fleet.Snapshot())
}

// handleEvents streams the journal as NDJSON from a sequence cursor
// (?since=N streams events with Seq > N; default everything). The stream
// stays open — new events flush as they land — until the client hangs up
// or the daemon drains; a disconnected client resumes by passing the last
// Seq it saw, and the dense Seq numbering guarantees no gap and no
// duplicate across the reconnect.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since := -1
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			daemon.WriteErr(w, http.StatusBadRequest, "bad since cursor %q", raw)
			return
		}
		since = n
	}
	journal := s.fleet.Journal()
	wake := journal.Watch()
	defer journal.Unwatch(wake)

	// The stream is long-lived by contract: clear the per-response write
	// deadline so HTTPServer's WriteTimeout doesn't cut it off mid-tail.
	// Best-effort — a ResponseWriter that can't do it just keeps whatever
	// deadline the server set.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	cursor := since
	emit := func() bool {
		for _, e := range journal.EventsSince(cursor) {
			if err := enc.Encode(e); err != nil {
				return false
			}
			cursor = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		if !emit() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.drainDone:
			// Drained: deliver whatever landed after the last scan, then
			// end the stream so clients see a clean EOF.
			emit()
			return
		case <-wake:
		}
	}
}
