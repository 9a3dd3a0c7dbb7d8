// Package fleet runs RPG² as a long-lived service over many simulated
// target processes at once — the datacenter deployment the paper pitches
// but the seed repo could not express. A Fleet owns an admission queue, a
// bounded worker pool, and a per-session lifecycle state machine wrapping
// the single-process controller; a shared profile store amortises PEBS
// profiling and distance search across sessions on matching workloads; an
// event journal, and the one fold over it every reader shares, make the
// whole thing observable.
package fleet

import (
	"errors"
	"sync"
	"sync/atomic"

	"rpg2/internal/admission"
	"rpg2/internal/store/remote"
	"rpg2/internal/workloads"
)

// Fleet is the long-lived service: submit sessions, drain, snapshot.
type Fleet struct {
	cfg     Config
	store   Store
	journal *Journal
	persist *persister // nil when StateDir is unset: pure in-memory

	mu        sync.Mutex
	cond      *sync.Cond
	sched     *admission.Queue
	inflight  int
	nextID    int
	queuePeak int
	closed    bool
	sessions  []*Session

	workers sync.WaitGroup

	// Remote-store degrade state (Config.StoreAddr): the client fires
	// OnDegrade exactly once; the error lands before the flag flips so
	// Snapshot never reads a degraded status with no cause.
	storeDegraded atomic.Bool
	storeErr      atomic.Pointer[string]
}

// New starts a fleet: the worker pool is live immediately and sessions run
// as they are submitted. Call Close when done admitting.
func New(cfg Config) *Fleet {
	f := newFleet(cfg)
	f.initPersist(nil)
	f.startWorkers()
	return f
}

// newFleet builds the fleet's in-memory core: store, journal, scheduler.
// No workers run yet and no state is on disk — Recover uses this window to
// restore recovered state before persistence and dispatch start.
func newFleet(cfg Config) *Fleet {
	cfg = cfg.defaults()
	f := &Fleet{
		cfg:     cfg,
		store:   cfg.Store,
		journal: NewJournal(),
		sched: admission.NewQueue(admission.Config{
			MaxRetries:       cfg.MaxRetries,
			MaxRetunes:       cfg.MaxRetunes,
			BreakerThreshold: cfg.BreakerThreshold,
		}),
	}
	if f.store == nil && !cfg.DisableStore {
		if cfg.StoreAddr != "" {
			// Shared out-of-process store. The client's fallback is the same
			// default Memory store as the in-process arm below, so a degraded
			// fleet behaves exactly like one that was never pointed at a
			// daemon — just cold.
			f.store = remote.New(remote.Config{
				BaseURL: cfg.StoreAddr,
				OnDegrade: func(err error) {
					msg := err.Error()
					f.storeErr.Store(&msg)
					f.storeDegraded.Store(true)
					f.journal.add(Event{Session: -1, Type: "store-degraded", Reason: cfg.StoreAddr, Err: msg})
				},
			})
		} else {
			f.store = NewStore(StoreConfig{})
		}
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// startWorkers brings the dispatch pool up.
func (f *Fleet) startWorkers() {
	for i := 0; i < f.cfg.Workers; i++ {
		f.workers.Add(1)
		go f.worker()
	}
}

// Store returns the fleet's profile store (nil when disabled).
func (f *Fleet) Store() Store {
	if f.cfg.DisableStore {
		return nil
	}
	return f.store
}

// Journal returns the fleet's event journal.
func (f *Fleet) Journal() *Journal { return f.journal }

// Sessions returns every admitted session in admission order.
func (f *Fleet) Sessions() []*Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Session, len(f.sessions))
	copy(out, f.sessions)
	return out
}

// Submit admits one session to the queue and returns its handle. After
// Close it returns ErrClosed; when a queue-depth cap (Config.MaxQueue,
// MaxTenantQueue) is hit it returns an *OverloadError (errors.Is
// ErrOverloaded) and admits nothing.
func (f *Fleet) Submit(spec SessionSpec) (*Session, error) {
	return f.submit(spec, 0, true)
}

// submitRecovered re-admits a session recovered from the WAL as the given
// attempt; the attempt machinery makes a crash-interrupted attempt re-run
// cold with a derived seed, exactly like a retried failure. Recovery
// bypasses backpressure: this work was already admitted once, shedding it
// now would turn a crash into data loss.
func (f *Fleet) submitRecovered(spec SessionSpec, attempt int) *Session {
	s, _ := f.submit(spec, attempt, false)
	return s
}

func (f *Fleet) submit(spec SessionSpec, attempt int, enforceCaps bool) (*Session, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if enforceCaps {
		if n := f.sched.Len(); f.cfg.MaxQueue > 0 && n >= f.cfg.MaxQueue {
			f.mu.Unlock()
			return nil, &OverloadError{Scope: "global", Depth: n, Cap: f.cfg.MaxQueue}
		}
		if t := spec.Tenant; t != "" && f.cfg.MaxTenantQueue > 0 {
			if n := f.sched.TenantDepth(t); n >= f.cfg.MaxTenantQueue {
				f.mu.Unlock()
				return nil, &OverloadError{Scope: "tenant", Tenant: t, Depth: n, Cap: f.cfg.MaxTenantQueue}
			}
		}
	}
	s := &Session{ID: f.nextID, Spec: spec, journal: f.journal, finished: make(chan struct{})}
	s.machineName = f.cfg.Machine.Name
	if spec.Machine != nil {
		s.machineName = spec.Machine.Name
	}
	s.item = &admission.Item{
		ID:        s.ID,
		Key:       admission.Key{Bench: spec.Bench, Input: spec.Input},
		Breakable: spec.Kind == OptimizeJob,
		Payload:   s,
		Attempt:   attempt,
		Tenant:    spec.Tenant,
	}
	f.nextID++
	f.sched.Push(s.item)
	f.sessions = append(f.sessions, s)
	if n := f.sched.Len(); n > f.queuePeak {
		f.queuePeak = n
	}
	f.mu.Unlock()

	ev := Event{
		Session: s.ID, Type: "queued", Kind: spec.Kind.String(),
		Bench: spec.Bench, Input: spec.Input, Machine: s.machineName,
		State: Queued.String(), Attempt: attempt, Tenant: spec.Tenant,
	}
	if f.cfg.StateDir != "" {
		// The replayable spec rides the WAL so recovery can re-admit this
		// session if it never finishes; in-memory journals skip it to stay
		// byte-identical to the pre-WAL fleet. Recover re-admits before its
		// persister exists, so this reads the config.
		ev.Spec = RecordSpec(spec)
	}
	f.journal.add(ev)
	f.cond.Broadcast()
	return s, nil
}

// Drain blocks until every admitted session has reached a terminal state
// (including pending retry-lane re-admissions). It is safe to call
// repeatedly and after Close.
func (f *Fleet) Drain() {
	f.mu.Lock()
	for !f.sched.Empty() || f.inflight > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Close stops admission, drains the queue (including the retry lane), and
// stops the workers. When persisting, it then rolls the WAL one last time
// and closes it, so a cleanly closed state dir resumes with the scheduler's
// clock and counters and every session's outcome. Close is idempotent:
// repeated or concurrent calls all block until the pool has shut down.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.workers.Wait()
	if f.persist != nil {
		f.persist.close(f.journal, f.capture)
	}
}

// CancelQueued fails every session still waiting in the queue or retry
// lane with ErrCanceled, leaving in-flight sessions to finish; it returns
// the number cancelled. This is the graceful-shutdown path: cancel, drain
// the in-flight remainder, then snapshot.
func (f *Fleet) CancelQueued() int {
	n := 0
	for {
		f.mu.Lock()
		it, ok := f.sched.EvictWhere(func(any) bool { return true })
		f.mu.Unlock()
		if !ok {
			break
		}
		s := it.Payload.(*Session)
		f.settle(s, Failed, 0, func() { s.err = ErrCanceled })
		ev := s.event("session-failed")
		ev.State, ev.Attempt, ev.Err = Failed.String(), it.Attempt, ErrCanceled.Error()
		f.finish(s, ev)
		n++
	}
	f.cond.Broadcast()
	return n
}

// ErrCanceled marks sessions failed by CancelQueued before they ran.
var ErrCanceled = errors.New("fleet: session cancelled before dispatch")

// DegradeQueued parks one still-queued session as Degraded and returns
// whether it found it waiting. It is the daemon's panic-recovery path: a
// handler that panicked mid-submit leaves a session whose client may never
// learn its ID, so the safe disposition is a terminal parked state rather
// than silently running work nobody can claim. Sessions already dispatched
// are left alone (they finish normally).
func (f *Fleet) DegradeQueued(id int) bool {
	f.mu.Lock()
	it, ok := f.sched.EvictWhere(func(payload any) bool {
		s, isSession := payload.(*Session)
		return isSession && s.ID == id
	})
	f.mu.Unlock()
	if !ok {
		return false
	}
	s := it.Payload.(*Session)
	f.transition(s, Degraded, 0)
	ev := s.event("session-degraded")
	ev.State, ev.Attempt = Degraded.String(), it.Attempt
	f.finish(s, ev)
	f.cond.Broadcast()
	return true
}

// RecordPanic journals a recovered daemon handler panic as a fleet-level
// event, so the incident is durable (and replay-safe: recovery ignores
// fleet-level event types it does not know).
func (f *Fleet) RecordPanic(route, msg string) {
	f.journal.add(Event{Session: -1, Type: "handler-panic", Reason: route, Err: msg})
}

// Run is the batch convenience: submit all specs, drain, return the
// sessions. The fleet stays open for more work afterwards.
func (f *Fleet) Run(specs []SessionSpec) ([]*Session, error) {
	out := make([]*Session, 0, len(specs))
	for _, spec := range specs {
		s, err := f.Submit(spec)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	f.Drain()
	return out, nil
}

// Snapshot freezes the fleet-wide metrics: the journal's fold beside the
// scheduler, store, build-cache and persistence counters.
func (f *Fleet) Snapshot() Snapshot {
	f.mu.Lock()
	sched := f.sched.Stats()
	snap := Snapshot{
		Workers: f.cfg.Workers, QueuePeak: f.queuePeak,
		QueueDepth: f.sched.Len(), TenantQueue: f.sched.TenantDepths(),
		Retries: sched.Retries, BackoffWaitSecs: sched.BackoffWait,
		BreakerTrips: sched.BreakerTrips, BreakersOpen: f.sched.OpenBreakers(),
		Breakers: f.sched.Breakers(), VirtualClock: sched.Clock,
	}
	f.mu.Unlock()
	f.journal.tally(&snap)
	if st := f.Store(); st != nil {
		snap.Store, snap.StoreEntries = st.Counters(), st.Len()
		if n := snap.Store.Hits + snap.Store.Misses; n > 0 {
			snap.StoreHitRate = float64(snap.Store.Hits) / float64(n)
		}
	}
	snap.BuildConstructs, snap.BuildHits = f.cfg.Builds.Builds(), f.cfg.Builds.Hits()
	if f.persist != nil {
		f.persist.health(&snap)
	}
	if f.cfg.StoreAddr != "" && !f.cfg.DisableStore {
		snap.RemoteStore = "active"
		if f.storeDegraded.Load() {
			snap.RemoteStore = "degraded"
			if msg := f.storeErr.Load(); msg != nil {
				snap.RemoteStoreError = *msg
			}
		}
	}
	return snap
}

// Builds returns the fleet's workload build cache.
func (f *Fleet) Builds() *workloads.BuildCache { return f.cfg.Builds }

// worker pulls dispatch decisions from the admission scheduler until the
// fleet is closed and fully drained. A false Pop means nothing is waiting:
// the worker sleeps until a submission, or a completion's retry or
// re-tune, changes the picture.
func (f *Fleet) worker() {
	defer f.workers.Done()
	for {
		f.mu.Lock()
		var dec admission.Decision
		for {
			var ok bool
			if dec, ok = f.sched.Pop(); ok {
				break
			}
			if f.closed && f.inflight == 0 {
				f.mu.Unlock()
				f.cond.Broadcast()
				return
			}
			f.cond.Wait()
		}
		f.inflight++
		f.mu.Unlock()

		s := dec.Item.Payload.(*Session)
		ev := s.event("admitted")
		ev.Attempt, ev.Wait = dec.Item.Attempt, dec.Waited
		f.journal.add(ev)
		if dec.Parked {
			f.parkSession(s)
		} else {
			f.runSession(s)
		}
		f.tendPersist()

		f.mu.Lock()
		f.inflight--
		f.mu.Unlock()
		f.cond.Broadcast()
	}
}
