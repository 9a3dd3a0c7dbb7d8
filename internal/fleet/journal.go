package fleet

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	rpgcore "rpg2/internal/rpg2"
)

// Event is one record on the fleet's journal: a session state transition,
// a profile-store decision, or a terminal session report. Events marshal to
// JSON with the same Report encoding cmd/rpg2 -json emits, so fleet
// journals and single-session dumps can share tooling.
type Event struct {
	// Seq is the journal-global sequence number (assigned on append).
	Seq int `json:"seq"`
	// Wall is seconds of real time since the journal was opened.
	Wall float64 `json:"wall"`
	// Session is the subject session's ID (-1 for fleet-level events).
	Session int `json:"session"`
	// Type is the event kind: "queued", "admitted", "state", "store-hit",
	// "store-miss", "store-translated", "store-bypass", "store-commit",
	// "store-invalidate", "retry-scheduled", "breaker-open",
	// "breaker-closed", "session-done", "session-failed",
	// "session-degraded", "drift-detected", "retune-scheduled",
	// "retune-complete" — plus the fleet-level (Session -1) chaos and
	// hardening vocabulary: "persist-degraded", "persist-rearm",
	// "persist-rearmed", "handler-panic".
	Type string `json:"type"`
	// Bench and Input name the session's workload.
	Bench string `json:"bench,omitempty"`
	Input string `json:"input,omitempty"`
	// Kind is the session's job kind ("optimize", "baseline", "static",
	// "sweep", "profile", "apt-get") on admission and terminal events.
	Kind string `json:"kind,omitempty"`
	// Machine is the effective machine the session ran on.
	Machine string `json:"machine,omitempty"`
	// State is the session state entered (for "state" events and
	// terminal events).
	State string `json:"state,omitempty"`
	// At is the session-relative simulated time of a phase transition.
	At float64 `json:"t,omitempty"`
	// Warm marks sessions that were seeded from the profile store.
	Warm bool `json:"warm,omitempty"`
	// Translated marks sessions seeded from a sibling machine's profile
	// through the translation layer ("store-translated", "session-done").
	Translated bool `json:"translated,omitempty"`
	// Source is the sibling machine a "store-translated" seed came from.
	Source string `json:"source,omitempty"`
	// Distance is the latency-scaled seed distance of a "store-translated"
	// event — what the translated session's search starts from.
	Distance int `json:"distance,omitempty"`
	// Reason is why a "store-bypass" session skipped the store entirely:
	// "cold" (Spec.Cold), "retry" (re-profile attempt), or "retune" (a
	// re-tune lane pass).
	Reason string `json:"reason,omitempty"`
	// Attempt is the retry-lane attempt index the event belongs to
	// (0, omitted, for a session's first admission).
	Attempt int `json:"attempt,omitempty"`
	// Tenant is the submitter the session is accounted to ("queued"
	// events; omitted for untenanted sessions, so pre-tenant journals are
	// byte-identical).
	Tenant string `json:"tenant,omitempty"`
	// Backoff and Due describe a "retry-scheduled" event: the exponential
	// backoff granted and the virtual-clock due time, both in virtual
	// seconds.
	Backoff float64 `json:"backoff,omitempty"`
	Due     float64 `json:"due,omitempty"`
	// Wait is the virtual backoff wait an "admitted" dispatch consumed.
	Wait float64 `json:"wait,omitempty"`
	// Retune is the re-tune lane grant index the event belongs to — a
	// budget separate from Attempt, consumed by the phase-drift watchdog,
	// never by failures. Drift is not rollback: these events coexist with
	// (and are never conflated into) the retry/breaker vocabulary.
	Retune int `json:"retune,omitempty"`
	// Rate and Ref describe a "drift-detected" event: the smoothed
	// miss-site retirement rate that tripped the detector and the
	// activation-time reference it degraded from. Rate also rides on
	// "retune-complete" as the re-tuned activation rate.
	Rate float64 `json:"rate,omitempty"`
	Ref  float64 `json:"ref,omitempty"`
	// Windows is how many watchdog sample windows elapsed between the
	// (re-)activation and the firing — the detection half of the
	// recovery-latency accounting.
	Windows int `json:"windows,omitempty"`
	// Err carries the failure for "session-failed" events.
	Err string `json:"error,omitempty"`
	// Report is the full controller report for "session-done" events.
	Report *rpgcore.Report `json:"report,omitempty"`
	// Spec is the replayable projection of the submitted spec, attached to
	// "queued" events only when the fleet persists to a WAL — it is what
	// lets crash recovery re-admit sessions that never finished. Pure
	// in-memory journals stay byte-identical to the pre-WAL fleet.
	Spec *SpecRecord `json:"spec,omitempty"`
	// Entry is the committed profile, attached to "store-commit" events
	// only when persisting, so replay can rebuild the store.
	Entry *Entry `json:"entry,omitempty"`
}

// Journal is an append-only, concurrency-safe event log, and the one fold
// over it every reader of a session's story uses (fold.go).
type Journal struct {
	mu      sync.Mutex
	start   time.Time
	events  []Event
	fold    fold
	sink    func(Event)
	commit  func()
	watches map[chan struct{}]struct{}
}

// NewJournal opens an empty journal; Wall timestamps are relative to now.
func NewJournal() *Journal {
	return &Journal{start: time.Now()}
}

// SetSink installs a tee, replacing any earlier one: every subsequent
// event is handed to fn, under the journal lock, in sequence order — the
// hook the fleet's WAL hangs off. Events added before it are never handed
// to fn; the fleet's WAL seeds the ones it needs from the journal itself
// when it opens an epoch.
func (j *Journal) SetSink(fn func(Event)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sink = fn
}

// setCommit installs the sink's durability barrier: add runs fn after a
// commit-point event, outside the journal lock, and fn returns once
// everything the sink was handed so far is on stable storage. Without one
// the sink is taken to be durable on its own.
func (j *Journal) setCommit(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.commit = fn
}

// commitPoint reports whether someone outside the process is told about e
// — so e, and with it every record before it, must be durable first: a
// "queued" record (Submit hands back its session ID), a terminal record
// (the outcome a client fetches) and every fleet-level event (operator
// incidents). Everything else is the fleet's own bookkeeping between two
// such points; recovery is defined on any prefix of it (DESIGN.md §11).
func commitPoint(e Event) bool {
	switch e.Type {
	case "queued", "session-done", "session-failed", "session-degraded":
		return true
	}
	return e.Session == -1
}

func (j *Journal) add(e Event) {
	j.mu.Lock()
	e.Seq = len(j.events)
	e.Wall = time.Since(j.start).Seconds()
	j.events = append(j.events, e)
	j.fold.apply(e)
	if j.sink != nil {
		j.sink(e)
	}
	if commit := j.commit; commit != nil && commitPoint(e) {
		// Durable before anyone is told: the fsync runs outside the lock, so
		// other sessions' events keep landing (and share it), and whoever
		// this record wakes finds it on disk.
		j.mu.Unlock()
		commit()
		j.mu.Lock()
	}
	for ch := range j.watches {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending wake; it will re-scan
		}
	}
	j.mu.Unlock()
}

// LastSeq is the Seq of the most recent event (-1 when the journal is
// empty). Seq numbers are dense, so this is also len(events)-1.
func (j *Journal) LastSeq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events) - 1
}

// withLock runs fn over the live event slice and its fold while holding
// the journal lock, freezing the event stream for the duration. It exists
// for the WAL's epoch opener (persister.beginEpoch): seeding a fresh WAL
// from the in-memory journal must observe a consistent prefix with no
// event able to land between the scan and the log swap. fn must not append
// events or acquire the fleet lock (the fleet journals while holding it, so
// that edge would deadlock).
func (j *Journal) withLock(fn func(events []Event, fd *fold)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn(j.events, &j.fold)
}

// View is session id as the records journaled so far tell it, and whether
// any record names it. A record is in the view once its append has handed
// it to the sink, so a view never runs ahead of the WAL.
func (j *Journal) View(id int) (SessionView, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	sf, ok := j.fold.sessions[id]
	if !ok {
		return SessionView{}, false
	}
	return sf.SessionView, true
}

// restoreLane hands session id's fold the re-tune lane posture v that
// recovery read for the pre-crash session id re-admits: grants consumed,
// passes completed, the warm seed. id's queued record is journaled already.
// A pending pass is not restored here: Recover restates its
// retune-scheduled record, so a second crash sees it too.
func (j *Journal) restoreLane(id int, v SessionView) {
	j.mu.Lock()
	defer j.mu.Unlock()
	sf := j.fold.sessions[id]
	sf.granted, sf.Retunes, sf.retuneDistance = v.granted, v.Retunes, v.retuneDistance
}

// tally fills the journal's half of a Snapshot (fold.tally).
func (j *Journal) tally(s *Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fold.tally(s, time.Since(j.start).Seconds())
}

// Events returns a copy of the log in append order.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}

// EventsSince returns a copy of every event with Seq > after, in order.
// Seq numbers are dense (assigned 0,1,2,... on append), so passing the
// last seen Seq resumes a stream with no gap and no duplicate; after=-1
// returns everything.
func (j *Journal) EventsSince(after int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	from := after + 1
	if from < 0 {
		from = 0
	}
	if from >= len(j.events) {
		return nil
	}
	out := make([]Event, len(j.events)-from)
	copy(out, j.events[from:])
	return out
}

// Watch registers a wake channel: each append sends a non-blocking signal
// on it. Pair with EventsSince for an edge-triggered stream — a coalesced
// wake is fine because the consumer re-scans from its cursor. Callers must
// Unwatch when done.
func (j *Journal) Watch() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.watches == nil {
		j.watches = make(map[chan struct{}]struct{})
	}
	j.watches[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

// Unwatch removes a wake channel registered by Watch.
func (j *Journal) Unwatch(ch chan struct{}) {
	j.mu.Lock()
	delete(j.watches, ch)
	j.mu.Unlock()
}

// SessionEvents returns the events belonging to one session, in order.
// It filters under the lock rather than copying the whole log first, so a
// per-session query allocates O(matches), not O(total events).
func (j *Journal) SessionEvents(id int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, e := range j.events {
		if e.Session == id {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON streams the journal as newline-delimited JSON.
func (j *Journal) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range j.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
