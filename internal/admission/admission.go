// Package admission is the fleet's scheduling and resilience layer: the
// policy that decides which submitted session a free worker runs next. It
// replaces the fleet's original FIFO channel with three cooperating
// mechanisms:
//
//   - an aged FIFO order: a waiting item gains one point per agingStep
//     dispatches it has waited, and the highest score dispatches first,
//     submission order breaking ties — so a retry promoted from the lane
//     queues behind work that has waited a full step longer, and ahead of
//     newer work;
//   - a retry lane with capped exponential backoff, driven by a
//     deterministic virtual clock (seconds that advance only when a
//     dispatch consumes a backoff wait — never wall time), re-admitting
//     failed and rolled-back sessions up to a per-session budget;
//   - a per-key circuit breaker: after BreakerThreshold consecutive
//     rollbacks a key's breaker opens and further breakable items are
//     parked (the fleet turns them into Degraded sessions) until the
//     virtual clock passes a cooldown, when one half-open trial is
//     admitted; success closes the breaker, another rollback re-opens it.
//
// The queue is deliberately not self-locking: the fleet owns the mutex
// that guards it (the queue state is entangled with the fleet's in-flight
// accounting, so a private lock would only invite lock-order bugs).
// Everything here is deterministic given the sequence of calls: no wall
// clocks, no randomness.
package admission

import "sort"

// Key is the breaker domain: one (bench, input) workload.
type Key struct {
	Bench string `json:"bench"`
	Input string `json:"input,omitempty"`
}

// Config tunes the scheduler. The zero value is a plain FIFO queue:
// no retries, no re-tunes, no breaker.
type Config struct {
	// MaxRetries is the per-item retry budget (0 = no retry lane).
	MaxRetries int
	// BreakerThreshold is the consecutive-rollback count that trips a
	// key's breaker (0 = breaker disabled).
	BreakerThreshold int
	// MaxRetunes is the per-item re-tune budget (0 = no re-tune lane).
	// The re-tune lane is distinct from the retry lane: retries re-run
	// *failed* attempts with exponential backoff and a derived cold seed,
	// while re-tunes re-admit *successful* sessions whose tuned distance
	// has drifted, after a short fixed delay, to re-enter the distance
	// search warm. A re-tune does not consume retry budget or touch
	// Attempt.
	MaxRetunes int
}

// The scheduler's fixed policy, times in virtual seconds.
const (
	// backoffBase is the first retry's backoff; attempt n waits
	// backoffBase·2^(n-1), capped at backoffCap.
	backoffBase = 0.5
	backoffCap  = 8.0
	// agingStep is how many dispatches raise a waiting item's score by
	// one.
	agingStep = 8
	// breakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open trial.
	breakerCooldown = 16.0
	// retuneDelay is the fixed wait before a re-admitted drifted session
	// re-dispatches. No exponential growth: repeated re-tunes of a phasey
	// workload are the intended steady state, not an escalating failure.
	retuneDelay = 0.5
)

// Item is one schedulable unit. The fleet stores its *Session in Payload;
// the queue never inspects it.
type Item struct {
	ID  int
	Key Key
	// Tenant names the submitter the item's queue depth is accounted to
	// ("" = untenanted, not tracked).
	Tenant string
	// Breakable items participate in the circuit breaker (the fleet sets
	// this for optimize jobs; reference-scheme jobs pass through).
	Breakable bool
	Payload   any
	// Attempt counts re-admissions through the retry lane (0 = first).
	Attempt int

	seq      int     // submission order, the FIFO tiebreak
	waitedAt int     // dispatch-counter timestamp for aging
	due      float64 // virtual due time while parked in the retry lane
}

// Decision is one dispatch: the item to run plus how it was admitted.
type Decision struct {
	Item *Item
	// Parked: the item's breaker is open — the caller should terminate it
	// as degraded instead of running it.
	Parked bool
	// HalfOpen: this dispatch is its breaker's single recovery trial.
	HalfOpen bool
	// Waited is the virtual time the clock advanced to release this item
	// from the retry lane (0 for ready items).
	Waited float64
}

// Outcome classifies a finished attempt for the breaker.
type Outcome int

const (
	// Success: the session reached Done.
	Success Outcome = iota
	// Rollback: the controller injected code and rolled it back.
	Rollback
	// Failure: the session failed outright.
	Failure
)

// Stats are the scheduler's cumulative policy counters. They marshal to
// JSON because a fleet's WAL snapshots persist them across restarts.
type Stats struct {
	// Retries counts re-admissions through the retry lane.
	Retries int `json:"retries,omitempty"`
	// BackoffWait is the total virtual seconds consumed by backoff.
	BackoffWait float64 `json:"backoff_wait,omitempty"`
	// BreakerTrips counts breaker openings (including half-open re-trips).
	BreakerTrips int `json:"breaker_trips,omitempty"`
	// Clock is the current virtual time in seconds.
	Clock float64 `json:"clock,omitempty"`
}

type breaker struct {
	consecutive int // rollbacks since the last success
	open        bool
	halfOpen    bool    // a recovery trial is in flight
	reopenAt    float64 // virtual time the cooldown expires
}

// Queue is the scheduler. It is not self-locking: the caller must guard
// every method with one mutex (the fleet uses its own).
type Queue struct {
	cfg Config

	ready    []*Item // scanned for the best score
	retries  []*Item // retry lane, kept sorted by due time
	breakers map[Key]*breaker
	// tenantDepth counts the items each non-empty tenant has waiting
	// (ready + retry lane).
	tenantDepth map[string]int

	clock      float64
	dispatches int
	seq        int
	stats      Stats
}

// NewQueue builds an empty scheduler.
func NewQueue(cfg Config) *Queue {
	return &Queue{
		cfg:         cfg,
		breakers:    make(map[Key]*breaker),
		tenantDepth: make(map[string]int),
	}
}

// Push admits a new item. The zero-config queue dispatches in push order.
func (q *Queue) Push(it *Item) {
	it.seq = q.seq
	q.seq++
	it.waitedAt = q.dispatches
	q.ready = append(q.ready, it)
	q.depthAdd(it.Tenant, 1)
}

// depthAdd moves a tenant's waiting-item count, dropping zeroed tenants so
// TenantDepths never accretes dead submitters.
func (q *Queue) depthAdd(tenant string, delta int) {
	if tenant == "" {
		return
	}
	q.tenantDepth[tenant] += delta
	if q.tenantDepth[tenant] <= 0 {
		delete(q.tenantDepth, tenant)
	}
}

// Len is the number of items waiting (ready + retry lane).
func (q *Queue) Len() int { return len(q.ready) + len(q.retries) }

// TenantDepth is how many items a tenant has waiting (ready + retry lane).
func (q *Queue) TenantDepth(tenant string) int { return q.tenantDepth[tenant] }

// TenantDepths copies the per-tenant waiting-item counts (non-empty
// tenants only; nil when no tenanted work is waiting).
func (q *Queue) TenantDepths() map[string]int {
	if len(q.tenantDepth) == 0 {
		return nil
	}
	out := make(map[string]int, len(q.tenantDepth))
	for t, n := range q.tenantDepth {
		out[t] = n
	}
	return out
}

// Empty reports whether nothing is waiting anywhere.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// Stats returns the cumulative policy counters.
func (q *Queue) Stats() Stats {
	s := q.stats
	s.Clock = q.clock
	return s
}

// OpenBreakers counts keys whose breaker is currently open.
func (q *Queue) OpenBreakers() int {
	n := 0
	for _, b := range q.breakers {
		if b.open {
			n++
		}
	}
	return n
}

// BreakerState is one key's breaker posture: the diagnosable detail the
// metrics snapshot lists and WAL snapshots persist.
type BreakerState struct {
	Key Key `json:"key"`
	// Consecutive is the rollback depth since the last success.
	Consecutive int  `json:"consecutive"`
	Open        bool `json:"open,omitempty"`
	// HalfOpen marks a breaker whose single recovery trial is in flight.
	HalfOpen bool `json:"half_open,omitempty"`
	// ReopenAt is the virtual time the cooldown expires (while open).
	ReopenAt float64 `json:"reopen_at,omitempty"`
}

// State renders the posture as the operator-facing word.
func (b BreakerState) State() string {
	switch {
	case b.HalfOpen:
		return "half-open"
	case b.Open:
		return "open"
	}
	return "closed"
}

// Breakers returns every non-idle breaker (open, half-open, or holding a
// consecutive-rollback count), sorted by key for deterministic output.
func (q *Queue) Breakers() []BreakerState {
	var out []BreakerState
	for k, b := range q.breakers {
		if !b.open && !b.halfOpen && b.consecutive == 0 {
			continue
		}
		out = append(out, BreakerState{
			Key: k, Consecutive: b.consecutive,
			Open: b.open, HalfOpen: b.halfOpen, ReopenAt: b.reopenAt,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Bench != out[j].Key.Bench {
			return out[i].Key.Bench < out[j].Key.Bench
		}
		return out[i].Key.Input < out[j].Key.Input
	})
	return out
}

// PersistState is the scheduler state a fleet's WAL snapshots carry across
// process lifetimes: the virtual clock, the cumulative policy counters,
// and every breaker's posture. Waiting items are deliberately absent —
// the fleet re-admits them explicitly from its journal, because only it
// knows their payloads.
type PersistState struct {
	Clock    float64        `json:"clock,omitempty"`
	Stats    Stats          `json:"stats"`
	Breakers []BreakerState `json:"breakers,omitempty"`
}

// Export captures the persistable scheduler state.
func (q *Queue) Export() PersistState {
	return PersistState{Clock: q.clock, Stats: q.Stats(), Breakers: q.Breakers()}
}

// Import restores exported state into a queue that has not dispatched
// anything yet. A breaker exported half-open lost its in-flight trial
// with the process, so it re-arms as plain open with a fresh cooldown
// from the restored clock.
func (q *Queue) Import(st PersistState) {
	q.clock = st.Clock
	q.stats = st.Stats
	q.stats.Clock = st.Clock
	for _, bs := range st.Breakers {
		b := &breaker{consecutive: bs.Consecutive, open: bs.Open, reopenAt: bs.ReopenAt}
		if bs.HalfOpen {
			b.open = true
			b.reopenAt = q.clock + breakerCooldown
		}
		q.breakers[bs.Key] = b
	}
}

// ReplayBreaker applies a journaled breaker edge that postdates the last
// snapshot: recovery's coarse roll-forward. An "open" edge records at
// least the trip threshold's rollback depth; a "close" edge resets.
func (q *Queue) ReplayBreaker(k Key, open bool) {
	b := q.breakers[k]
	if b == nil {
		b = &breaker{}
		q.breakers[k] = b
	}
	if open {
		b.open, b.halfOpen = true, false
		if b.consecutive < q.cfg.BreakerThreshold {
			b.consecutive = q.cfg.BreakerThreshold
		}
		b.reopenAt = q.clock + breakerCooldown
	} else {
		b.open, b.halfOpen, b.consecutive = false, false, 0
	}
}

// score is an item's aging bucket: one point per agingStep dispatches
// spent waiting since it entered the ready queue. It is not plain list
// order: a retry promoted from the lane restarts at zero, so it dispatches
// after fresh work that has waited a full step longer and, by seq, before
// fresh work that has not.
func (q *Queue) score(it *Item) int {
	return (q.dispatches - it.waitedAt) / agingStep
}

// promoteDue moves retry-lane items whose due time has arrived into the
// ready queue (aging restarts from promotion).
func (q *Queue) promoteDue() {
	kept := q.retries[:0]
	for _, it := range q.retries {
		if it.due <= q.clock {
			it.waitedAt = q.dispatches
			q.ready = append(q.ready, it)
		} else {
			kept = append(kept, it)
		}
	}
	q.retries = kept
}

// pick returns the ready item with the best score, the lowest seq among
// equals (nil when nothing is ready).
func (q *Queue) pick() *Item {
	var best *Item
	bestScore := 0
	for _, it := range q.ready {
		sc := q.score(it)
		if best == nil || sc > bestScore || (sc == bestScore && it.seq < best.seq) {
			best, bestScore = it, sc
		}
	}
	return best
}

// remove drops an item from the ready queue.
func (q *Queue) remove(it *Item) {
	for i, r := range q.ready {
		if r == it {
			q.ready = append(q.ready[:i], q.ready[i+1:]...)
			return
		}
	}
}

// dispatch finalises a pick: depth accounting, breaker parking, counters.
func (q *Queue) dispatch(it *Item, waited float64) (Decision, bool) {
	q.remove(it)
	q.depthAdd(it.Tenant, -1)
	q.dispatches++
	d := Decision{Item: it, Waited: waited}
	if it.Breakable && q.cfg.BreakerThreshold > 0 {
		if b := q.breakers[it.Key]; b != nil && b.open {
			switch {
			case q.clock >= b.reopenAt && !b.halfOpen:
				b.halfOpen = true
				d.HalfOpen = true
			default:
				d.Parked = true
			}
		}
	}
	return d, true
}

// Pop hands the caller the next dispatch, if any. When nothing is ready
// but the retry lane holds an item, the virtual clock jumps to the lane's
// earliest due time — the deterministic stand-in for sleeping out the
// backoff. A false return means nothing is waiting at all.
func (q *Queue) Pop() (Decision, bool) {
	q.promoteDue()
	if it := q.pick(); it != nil {
		return q.dispatch(it, 0)
	}
	if len(q.retries) == 0 {
		return Decision{}, false
	}
	// promoteDue left only items due after now, and the lane is sorted by
	// due time, so its head is the one a real scheduler would wake for.
	waited := q.retries[0].due - q.clock
	q.clock = q.retries[0].due
	q.stats.BackoffWait += waited
	q.promoteDue()
	return q.dispatch(q.pick(), waited)
}

// EvictWhere removes and returns the first waiting item whose payload
// matches pred — ready queue first in submission order, then the retry
// lane — without dispatching it. It is the cancellation path: graceful
// shutdown drains with an always-true pred, the daemon's panic recovery
// picks one session. ok=false when nothing waiting matches.
func (q *Queue) EvictWhere(pred func(payload any) bool) (*Item, bool) {
	for i, it := range q.ready {
		if pred(it.Payload) {
			q.ready = append(q.ready[:i:i], q.ready[i+1:]...)
			q.depthAdd(it.Tenant, -1)
			return it, true
		}
	}
	for i, it := range q.retries {
		if pred(it.Payload) {
			q.retries = append(q.retries[:i:i], q.retries[i+1:]...)
			q.depthAdd(it.Tenant, -1)
			return it, true
		}
	}
	return nil, false
}

// Backoff returns the wait attempt n (1-based) would be scheduled with.
func (q *Queue) Backoff(attempt int) float64 {
	b := backoffBase
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= backoffCap {
			return backoffCap
		}
	}
	return b
}

// park puts an item in the due-sorted waiting lane Retry and Retune share,
// due wait virtual seconds from now, and returns its due time.
func (q *Queue) park(it *Item, wait float64) float64 {
	it.due = q.clock + wait
	q.retries = append(q.retries, it)
	q.depthAdd(it.Tenant, 1)
	sort.SliceStable(q.retries, func(i, j int) bool {
		return q.retries[i].due < q.retries[j].due
	})
	return it.due
}

// Retry re-admits a finished item through the backoff lane. It reports
// the backoff wait and due time, or ok=false when the retry budget is
// spent (or the lane is disabled). The item's Attempt is incremented.
func (q *Queue) Retry(it *Item) (backoff, due float64, ok bool) {
	if q.cfg.MaxRetries <= 0 || it.Attempt >= q.cfg.MaxRetries {
		return 0, 0, false
	}
	it.Attempt++
	backoff = q.Backoff(it.Attempt)
	q.stats.Retries++
	return backoff, q.park(it, backoff), true
}

// Retune re-admits a drifted-but-successful item through the re-tune
// lane, granted being the re-tune grants the item has already used. It
// reports the fixed delay and due time, or ok=false when the re-tune
// budget is spent (or the lane is disabled). The item's Attempt is
// untouched: drift repair is not failure. The lane shares the retry lane's
// due-sorted waiting list and promotion machinery, but none of its policy:
// no exponential backoff, no retry budget.
func (q *Queue) Retune(it *Item, granted int) (delay, due float64, ok bool) {
	if !q.CanRetune(granted) {
		return 0, 0, false
	}
	return retuneDelay, q.park(it, retuneDelay), true
}

// CanRetune reports whether the re-tune lane still has budget for an item
// that has used granted grants. The fleet's watchdog disarms (stops
// sampling entirely) once the budget is spent, so a drifted session never
// burns measurement windows on a firing that could not be acted on.
func (q *Queue) CanRetune(granted int) bool {
	return q.cfg.MaxRetunes > 0 && granted < q.cfg.MaxRetunes
}

// Report feeds a finished attempt's outcome to its key's breaker and
// reports whether that opened or closed it. Non-breakable items must not
// be reported.
func (q *Queue) Report(k Key, o Outcome) (opened, closed bool) {
	if q.cfg.BreakerThreshold <= 0 {
		return false, false
	}
	b := q.breakers[k]
	if b == nil {
		b = &breaker{}
		q.breakers[k] = b
	}
	switch o {
	case Success:
		b.consecutive = 0
		if b.open {
			b.open, b.halfOpen = false, false
			closed = true
		}
	case Rollback:
		b.consecutive++
		switch {
		case b.open && b.halfOpen:
			// The recovery trial rolled back: stay open, restart cooldown.
			b.halfOpen = false
			b.reopenAt = q.clock + breakerCooldown
			q.stats.BreakerTrips++
			opened = true
		case !b.open && b.consecutive >= q.cfg.BreakerThreshold:
			b.open = true
			b.reopenAt = q.clock + breakerCooldown
			q.stats.BreakerTrips++
			opened = true
		}
	case Failure:
		if b.open && b.halfOpen {
			// A failed trial proves nothing good: re-arm the cooldown.
			b.halfOpen = false
			b.reopenAt = q.clock + breakerCooldown
			q.stats.BreakerTrips++
			opened = true
		}
	}
	return opened, closed
}
