package admission

import "testing"

func item(id int, k Key) *Item {
	return &Item{ID: id, Key: k, Breakable: true}
}

// pop pops and returns the dispatched item, failing if the queue had
// nothing to give.
func pop(t *testing.T, q *Queue) *Item {
	t.Helper()
	d, ok := q.Pop()
	if !ok {
		t.Fatalf("Pop: queue unexpectedly empty (len=%d)", q.Len())
	}
	return d.Item
}

// popID pops and returns the dispatched item's ID.
func popID(t *testing.T, q *Queue) int {
	t.Helper()
	return pop(t, q).ID
}

// evictAll is the always-true EvictWhere graceful shutdown drains with.
func evictAll(q *Queue) (*Item, bool) { return q.EvictWhere(func(any) bool { return true }) }

func TestZeroConfigIsFIFO(t *testing.T) {
	q := NewQueue(Config{})
	for i := 0; i < 8; i++ {
		q.Push(item(i, Key{Bench: "pr"}))
	}
	for i := 0; i < 8; i++ {
		if got := popID(t, q); got != i {
			t.Fatalf("dispatch %d: got item %d, want FIFO order", i, got)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on an empty queue")
	}
	s := q.Stats()
	if s.Retries != 0 || s.BreakerTrips != 0 || s.Clock != 0 {
		t.Fatalf("zero-config queue accrued policy stats: %+v", s)
	}
}

// popLowest pops like pop, and fails if the dispatch passed over a ready or
// due item with a lower seq.
func popLowest(t *testing.T, q *Queue) *Item {
	t.Helper()
	low := -1
	for _, w := range append(append([]*Item(nil), q.ready...), q.retries...) {
		if w.due <= q.clock && (low < 0 || w.seq < low) {
			low = w.seq
		}
	}
	it := pop(t, q)
	if it.seq != low {
		t.Fatalf("dispatched seq %d (item %d) while seq %d waited", it.seq, it.ID, low)
	}
	return it
}

// agedFirst pins the order rule the queue keeps: the waiting item with the
// lowest seq dispatches first. A retry r (ID 0, seq 0) is promoted from the
// lane after fresh work f (ID 1) has already waited gap dispatches, and
// later more items are pushed before each of the two dispatches that
// follow. agedFirst returns the ID dispatched first of r and f, after
// checking the other follows at once and that no dispatch passed over a
// lower seq.
func agedFirst(t *testing.T, gap, later int) int {
	t.Helper()
	q := NewQueue(Config{MaxRetries: 1})
	r := item(0, Key{Bench: "retry"})
	q.Push(r)
	pop(t, q)
	if _, _, ok := q.Retry(r); !ok {
		t.Fatal("retry refused")
	}
	// gap fillers ahead of f (lower seq) dispatch first, so f waits
	// exactly gap dispatches before r is promoted.
	for i := 0; i < gap; i++ {
		q.Push(item(100+i, Key{Bench: "filler"}))
	}
	q.Push(item(1, Key{Bench: "fresh"}))
	for i := 0; i < gap; i++ {
		if got := popLowest(t, q).ID; got != 100+i {
			t.Fatalf("gap %d: filler dispatch %d got item %d", gap, i, got)
		}
	}
	q.clock = r.due // r's backoff is over: the next Pop promotes it
	var got [2]int
	for i := range got {
		for j := 0; j < later; j++ {
			q.Push(item(1000+i*later+j, Key{Bench: "later"}))
		}
		got[i] = popLowest(t, q).ID
	}
	if got[0]+got[1] != 1 {
		t.Fatalf("gap %d, %d later: items %d then %d dispatched, want r and f", gap, later, got[0], got[1])
	}
	return got[0]
}

// TestPriorityOrderWithFIFOTiebreak: the promoted retry goes first by seq,
// which a plain list-order pick (f is ahead of r in the ready list) gets
// wrong.
func TestPriorityOrderWithFIFOTiebreak(t *testing.T) {
	if got := agedFirst(t, 0, 0); got != 0 {
		t.Fatalf("item %d dispatched first, want the lower-seq retry", got)
	}
}

// TestAgingNeverPromotesEarly: however long fresh work has waited, it never
// passes the lower-seq retry.
func TestAgingNeverPromotesEarly(t *testing.T) {
	for gap := 0; gap <= 24; gap++ {
		if got := agedFirst(t, gap, 0); got != 0 {
			t.Fatalf("gap %d: item %d dispatched first, want the lower-seq retry", gap, got)
		}
	}
}

// TestAgingPreventsStarvation: whatever the gap and however many later
// pushes arrive, no item dispatches ahead of a waiting item with a lower
// seq, so both r and f dispatch before any later push.
func TestAgingPreventsStarvation(t *testing.T) {
	for _, gap := range []int{0, 8, 19} {
		for _, later := range []int{1, 4, 16} {
			if got := agedFirst(t, gap, later); got != 0 {
				t.Fatalf("gap %d, %d later: item %d dispatched first, want the lower-seq retry", gap, later, got)
			}
		}
	}
}

func TestRetryBackoffAndVirtualClock(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 3})
	it := item(1, Key{Bench: "pr"})
	q.Push(it)
	pop(t, q)

	// First retry: backoffBase (0.5 s) from clock 0.
	backoff, due, ok := q.Retry(it)
	if !ok || backoff != backoffBase || due != backoffBase {
		t.Fatalf("retry 1: backoff=%v due=%v ok=%v, want 0.5/0.5/true", backoff, due, ok)
	}
	if it.Attempt != 1 {
		t.Fatalf("Attempt = %d, want 1", it.Attempt)
	}
	// Nothing ready: Pop must jump the virtual clock to the due time.
	d, ok := q.Pop()
	if !ok || d.Item != it {
		t.Fatal("retry item did not dispatch")
	}
	if d.Waited != 0.5 || q.Stats().Clock != 0.5 {
		t.Fatalf("waited=%v clock=%v, want 0.5/0.5", d.Waited, q.Stats().Clock)
	}

	// Exponential doubling: attempt 2 waits 1.0 s.
	if backoff, due, _ = q.Retry(it); backoff != 1.0 || due != 1.5 {
		t.Fatalf("retry 2: backoff=%v due=%v, want 1.0/1.5", backoff, due)
	}
	pop(t, q)
	// Attempt 3 waits 2.0 s and exhausts the budget.
	if backoff, _, _ = q.Retry(it); backoff != 2.0 {
		t.Fatalf("retry 3: backoff=%v, want 2.0", backoff)
	}
	pop(t, q)
	if _, _, ok = q.Retry(it); ok {
		t.Fatal("retry 4 admitted past MaxRetries=3")
	}

	s := q.Stats()
	if s.Retries != 3 {
		t.Fatalf("Retries = %d, want 3", s.Retries)
	}
	if s.BackoffWait != 3.5 {
		t.Fatalf("BackoffWait = %v, want 3.5", s.BackoffWait)
	}
	if s.Clock != 3.5 {
		t.Fatalf("Clock = %v, want 3.5", s.Clock)
	}
}

func TestBackoffCap(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 10})
	waits := []float64{backoffBase, 1, 2, 4, backoffCap, backoffCap, backoffCap}
	for i, want := range waits {
		if got := q.Backoff(i + 1); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
}

func TestRetryDisabledByDefault(t *testing.T) {
	q := NewQueue(Config{})
	it := item(1, Key{})
	q.Push(it)
	q.Pop()
	if _, _, ok := q.Retry(it); ok {
		t.Fatal("zero-config queue admitted a retry")
	}
}

func TestBreakerTripParkHalfOpenClose(t *testing.T) {
	q := NewQueue(Config{BreakerThreshold: 2, MaxRetries: 1})
	k := Key{Bench: "pr", Input: "soc"}

	// Two consecutive rollbacks trip the breaker.
	if opened, _ := q.Report(k, Rollback); opened {
		t.Fatal("breaker tripped after one rollback")
	}
	opened, _ := q.Report(k, Rollback)
	if !opened {
		t.Fatal("breaker did not trip at the threshold")
	}
	if q.OpenBreakers() != 1 {
		t.Fatalf("OpenBreakers = %d, want 1", q.OpenBreakers())
	}

	// Before the cooldown expires, breakable items park.
	q.Push(item(1, k))
	d, ok := q.Pop()
	if !ok || !d.Parked {
		t.Fatalf("expected a parked dispatch, got %+v ok=%v", d, ok)
	}
	if d.Item.ID != 1 || d.HalfOpen {
		t.Fatalf("parked dispatch %+v, want item 1 and no trial", d)
	}
	if s := q.Stats(); s.BreakerTrips != 1 {
		t.Fatalf("stats after park: %+v", s)
	}

	// Put the probe in the retry lane and move the clock to reopenAt:
	// the cooldown has expired, and the next dispatch is the single
	// half-open trial.
	probe := item(2, k)
	q.Push(probe)
	d, _ = q.Pop()
	if !d.Parked { // clock still 0 < reopenAt = breakerCooldown
		t.Fatal("pre-cooldown dispatch was not parked")
	}
	if _, _, ok := q.Retry(probe); !ok {
		t.Fatal("retry refused")
	}
	q.clock = breakerCooldown
	d, ok = q.Pop()
	if !ok || d.Parked || !d.HalfOpen {
		t.Fatalf("expected the half-open trial, got %+v ok=%v", d, ok)
	}
	// While the trial is in flight, further items still park.
	q.Push(item(3, k))
	d2, _ := q.Pop()
	if !d2.Parked {
		t.Fatal("second dispatch during half-open trial was not parked")
	}

	// The trial succeeds: breaker closes.
	if _, closed := q.Report(k, Success); !closed {
		t.Fatal("successful trial did not close the breaker")
	}
	if q.OpenBreakers() != 0 {
		t.Fatal("breaker still open after close")
	}
	q.Push(item(4, k))
	if d, _ := q.Pop(); d.Parked {
		t.Fatal("dispatch parked after the breaker closed")
	}
}

func TestBreakerHalfOpenRollbackReopens(t *testing.T) {
	q := NewQueue(Config{BreakerThreshold: 1})
	k := Key{Bench: "bc"}
	if opened, _ := q.Report(k, Rollback); !opened {
		t.Fatal("threshold-1 breaker did not trip")
	}
	q.clock = breakerCooldown + 1
	q.Push(item(1, k))
	d, _ := q.Pop()
	if !d.HalfOpen {
		t.Fatal("post-cooldown dispatch was not the half-open trial")
	}
	opened, _ := q.Report(k, Rollback)
	if !opened {
		t.Fatal("rolled-back trial did not re-open the breaker")
	}
	// The cooldown restarted: items park again.
	q.Push(item(2, k))
	if d, _ := q.Pop(); !d.Parked {
		t.Fatal("dispatch after a failed trial was not parked")
	}
	if s := q.Stats(); s.BreakerTrips != 2 {
		t.Fatalf("BreakerTrips = %d, want 2", s.BreakerTrips)
	}
}

func TestNonBreakableItemsIgnoreOpenBreaker(t *testing.T) {
	q := NewQueue(Config{BreakerThreshold: 1})
	k := Key{Bench: "pr"}
	q.Report(k, Rollback)
	it := item(1, k)
	it.Breakable = false // e.g. a baseline or sweep job on the same pair
	q.Push(it)
	if d, _ := q.Pop(); d.Parked {
		t.Fatal("non-breakable item was parked")
	}
}

func TestEvictDrainsReadyThenRetries(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 2})
	a := item(1, Key{Bench: "a"})
	b := item(2, Key{Bench: "b"})
	q.Push(a)
	q.Push(b)
	pop(t, q)  // dispatch a
	q.Retry(a) // a now sits in the retry lane

	if it, ok := evictAll(q); !ok || it != b {
		t.Fatalf("first evict: got %v ok=%v, want the ready item", it, ok)
	}
	if it, ok := evictAll(q); !ok || it != a {
		t.Fatalf("second evict: got %v ok=%v, want the retry-lane item", it, ok)
	}
	if _, ok := evictAll(q); ok {
		t.Fatal("evict succeeded on an empty queue")
	}
	if !q.Empty() {
		t.Fatal("queue not empty after full eviction")
	}
}

// TestExportImportRoundTrip: the persistable scheduler state survives a
// round trip into a fresh queue, and an imported open breaker still parks
// work exactly like the one that was exported.
func TestExportImportRoundTrip(t *testing.T) {
	cfg := Config{MaxRetries: 3, BreakerThreshold: 2}
	q := NewQueue(cfg)
	k := Key{Bench: "pr", Input: "kron"}
	for i := 0; i < 2; i++ {
		q.Push(item(i+1, k))
		pop(t, q)
		q.Report(k, Rollback)
	}
	st := q.Export()
	if len(st.Breakers) != 1 || !st.Breakers[0].Open || st.Breakers[0].Consecutive != 2 {
		t.Fatalf("export = %+v", st.Breakers)
	}

	q2 := NewQueue(cfg)
	q2.Import(st)
	got := q2.Export()
	if len(got.Breakers) != 1 || got.Breakers[0] != st.Breakers[0] ||
		got.Clock != st.Clock || got.Stats != st.Stats {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, st)
	}
	q2.Push(item(9, k))
	if d, ok := q2.Pop(); !ok || !d.Parked {
		t.Fatalf("imported open breaker did not park: parked=%v ok=%v", d.Parked, ok)
	}
}

// TestImportHalfOpenRearmsAsOpen: a breaker exported mid-trial lost the
// trial with the process; it must come back as plain open with a fresh
// cooldown, not stuck half-open forever.
func TestImportHalfOpenRearmsAsOpen(t *testing.T) {
	q := NewQueue(Config{BreakerThreshold: 2})
	q.Import(PersistState{Clock: 10, Breakers: []BreakerState{
		{Key: Key{Bench: "pr"}, Consecutive: 2, HalfOpen: true},
	}})
	bs := q.Breakers()
	if len(bs) != 1 || !bs[0].Open || bs[0].HalfOpen || bs[0].ReopenAt != 10+breakerCooldown {
		t.Fatalf("half-open import = %+v", bs)
	}
	if bs[0].State() != "open" {
		t.Fatalf("state = %q", bs[0].State())
	}
}

// TestReplayBreakerEdges: recovery's coarse roll-forward of journaled
// breaker transitions lands the breaker in the right posture.
func TestReplayBreakerEdges(t *testing.T) {
	q := NewQueue(Config{BreakerThreshold: 3})
	k := Key{Bench: "bfs", Input: "soc-gamma"}
	q.ReplayBreaker(k, true)
	bs := q.Breakers()
	if len(bs) != 1 || !bs[0].Open || bs[0].Consecutive != 3 {
		t.Fatalf("open replay = %+v", bs)
	}
	q.ReplayBreaker(k, false)
	if bs := q.Breakers(); len(bs) != 0 {
		t.Fatalf("close replay left %+v", bs)
	}
}

// TestTenantDepthAccounting: depth follows Push/dispatch/Retry/EvictWhere, and
// zeroed tenants are dropped from the map.
func TestTenantDepthAccounting(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 2})
	a := item(1, Key{Bench: "a"})
	a.Tenant = "alice"
	b := item(2, Key{Bench: "b"})
	b.Tenant = "bob"
	q.Push(a)
	q.Push(b)
	if d := q.TenantDepth("alice"); d != 1 {
		t.Fatalf("alice depth after push = %d, want 1", d)
	}
	if got := len(q.TenantDepths()); got != 2 {
		t.Fatalf("TenantDepths has %d tenants, want 2", got)
	}

	popID(t, q) // dispatch alice
	if d := q.TenantDepth("alice"); d != 0 {
		t.Fatalf("alice depth after dispatch = %d, want 0", d)
	}
	if _, ok := q.TenantDepths()["alice"]; ok {
		t.Fatal("zeroed tenant still present in TenantDepths")
	}

	// Retry re-enters the lane: depth comes back.
	if _, _, ok := q.Retry(a); !ok {
		t.Fatal("Retry refused with budget remaining")
	}
	if d := q.TenantDepth("alice"); d != 1 {
		t.Fatalf("alice depth after retry = %d, want 1", d)
	}

	// Eviction drains both the ready queue and the retry lane.
	for {
		if _, ok := evictAll(q); !ok {
			break
		}
	}
	if q.TenantDepths() != nil {
		t.Fatalf("depths after full eviction = %v, want nil", q.TenantDepths())
	}
}

func TestRetuneLaneFixedDelayAndBudget(t *testing.T) {
	q := NewQueue(Config{MaxRetunes: 2})
	it := item(1, Key{Bench: "bc-drift"})
	q.Push(it)
	d, _ := q.Pop()

	// First re-tune: fixed retuneDelay (0.5 s) from clock 0.
	delay, due, ok := q.Retune(it, 0)
	if !ok || delay != retuneDelay || due != retuneDelay {
		t.Fatalf("retune 1: delay=%v due=%v ok=%v, want 0.5/0.5/true", delay, due, ok)
	}
	if it.Attempt != 0 {
		t.Fatalf("Attempt=%d, want 0 (re-tunes must not consume retry budget)", it.Attempt)
	}
	d, ok = q.Pop()
	if !ok || d.Item != it {
		t.Fatal("re-tuned item did not dispatch")
	}

	// Second re-tune: same fixed delay, no exponential growth.
	if delay, _, _ = q.Retune(it, 1); delay != retuneDelay {
		t.Fatalf("retune 2: delay=%v, want fixed 0.5", delay)
	}
	d, _ = q.Pop()
	if _, _, ok = q.Retune(it, 2); ok || q.CanRetune(2) {
		t.Fatal("retune 3 admitted past MaxRetunes=2")
	}

	if s := q.Stats(); s.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (re-tunes must not count as retries)", s.Retries)
	}
}

func TestRetuneDisabledByDefault(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 3})
	it := item(1, Key{})
	q.Push(it)
	q.Pop()
	if _, _, ok := q.Retune(it, 0); ok {
		t.Fatal("queue without MaxRetunes admitted a re-tune")
	}
}

func TestRetuneIndependentOfRetryBudget(t *testing.T) {
	// An item that exhausted its retries can still re-tune, and vice versa.
	q := NewQueue(Config{MaxRetries: 1, MaxRetunes: 1})
	it := item(1, Key{Bench: "pr"})
	q.Push(it)
	pop(t, q)

	if _, _, ok := q.Retry(it); !ok {
		t.Fatal("retry 1 refused")
	}
	pop(t, q)
	if _, _, ok := q.Retry(it); ok {
		t.Fatal("retry 2 admitted past budget")
	}
	if _, _, ok := q.Retune(it, 0); !ok {
		t.Fatal("re-tune refused after retries were spent")
	}
	pop(t, q)
	if it.Attempt != 1 {
		t.Fatalf("Attempt=%d, want 1", it.Attempt)
	}
}

func TestRetuneTenantDepthAccounting(t *testing.T) {
	q := NewQueue(Config{MaxRetunes: 1})
	it := &Item{ID: 1, Key: Key{Bench: "bc-drift"}, Tenant: "team-a", Breakable: true}
	q.Push(it)
	pop(t, q)
	if got := q.TenantDepth("team-a"); got != 0 {
		t.Fatalf("depth after pop = %d, want 0", got)
	}
	if _, _, ok := q.Retune(it, 0); !ok {
		t.Fatal("re-tune refused")
	}
	if got := q.TenantDepth("team-a"); got != 1 {
		t.Fatalf("depth after re-tune = %d, want 1 (lane must be depth-accounted)", got)
	}
	pop(t, q)
	if got := q.TenantDepth("team-a"); got != 0 {
		t.Fatalf("depth after re-dispatch = %d, want 0", got)
	}
}
