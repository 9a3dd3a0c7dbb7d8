package admission

import "testing"

func item(id int, k Key, prio int) *Item {
	return &Item{ID: id, Key: k, Priority: prio, Breakable: true}
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
		q.Push(item(i, Key{Bench: "pr"}, 0))
	}
	for i := 0; i < 8; i++ {
		it := pop(t, q)
		if it.ID != i {
			t.Fatalf("dispatch %d: got item %d, want FIFO order", i, it.ID)
		}
		q.ReleaseItem(it)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on an empty queue")
	}
	s := q.Stats()
	if s.Retries != 0 || s.QuotaStalls != 0 || s.BreakerTrips != 0 || s.Clock != 0 {
		t.Fatalf("zero-config queue accrued policy stats: %+v", s)
	}
}

func TestPriorityOrderWithFIFOTiebreak(t *testing.T) {
	q := NewQueue(Config{}) // four dispatches < agingStep: explicit priority alone
	q.Push(item(0, Key{Bench: "a"}, 0))
	q.Push(item(1, Key{Bench: "b"}, 5))
	q.Push(item(2, Key{Bench: "c"}, 5))
	q.Push(item(3, Key{Bench: "d"}, 1))
	want := []int{1, 2, 3, 0} // high priority first, equal priority by seq
	for i, w := range want {
		if got := popID(t, q); got != w {
			t.Fatalf("dispatch %d: got item %d, want %d", i, got, w)
		}
	}
}

// starveRound pushes a priority-0 item, then one fresh priority-10 item and
// one dispatch per round, and returns the round the low item dispatched in
// (-1 if it did not within rounds).
func starveRound(t *testing.T, rounds int) int {
	q := NewQueue(Config{})
	q.Push(item(999, Key{Bench: "low"}, 0))
	for round := 0; round < rounds; round++ {
		q.Push(item(round, Key{Bench: "hi"}, 10))
		if popID(t, q) == 999 {
			return round
		}
	}
	return -1
}

func TestAgingPreventsStarvation(t *testing.T) {
	// A priority-0 item waits while priority-10 items keep arriving; its
	// effective priority gains a point every agingStep dispatches, so after
	// 10·agingStep dispatches it ties the fresh item and wins on seq.
	if got := starveRound(t, 10*agingStep+1); got < 0 {
		t.Fatalf("low-priority item starved for %d rounds despite aging", 10*agingStep+1)
	}
}

func TestAgingNeverPromotesEarly(t *testing.T) {
	// Before 10·agingStep dispatches the low item must still wait.
	if got := starveRound(t, 10*agingStep); got != -1 {
		t.Fatalf("round %d: aged item dispatched before its priority caught up", got)
	}
}

func TestQuotaBoundsInflightPerKey(t *testing.T) {
	q := NewQueue(Config{Quota: 2})
	k := Key{Bench: "pr", Input: "soc"}
	other := Key{Bench: "bfs"}
	for i := 0; i < 4; i++ {
		q.Push(item(i, k, 0))
	}
	q.Push(item(10, other, 0))

	first := pop(t, q)
	if first.ID != 0 {
		t.Fatalf("first dispatch: got %d", first.ID)
	}
	if got := popID(t, q); got != 1 {
		t.Fatalf("second dispatch: got %d", got)
	}
	// k is at quota: the other key's item dispatches instead.
	if got := popID(t, q); got != 10 {
		t.Fatalf("third dispatch: got %d, want the unblocked key's item", got)
	}
	// Everything left is quota-blocked: Pop stalls and counts it.
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop dispatched past the quota ceiling")
	}
	if s := q.Stats(); s.QuotaStalls != 1 {
		t.Fatalf("QuotaStalls = %d, want 1", s.QuotaStalls)
	}
	// Releasing one slot frees the next item.
	q.ReleaseItem(first)
	if got := popID(t, q); got != 2 {
		t.Fatalf("post-release dispatch: got %d, want 2", got)
	}
}

func TestRetryBackoffAndVirtualClock(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 3})
	it := item(1, Key{Bench: "pr"}, 0)
	q.Push(it)
	d, _ := q.Pop()
	q.ReleaseItem(d.Item)

	// First retry: backoffBase (0.5 s) from clock 0.
	backoff, due, ok := q.Retry(it)
	if !ok || backoff != backoffBase || due != backoffBase {
		t.Fatalf("retry 1: backoff=%v due=%v ok=%v, want 0.5/0.5/true", backoff, due, ok)
	}
	if it.Attempt != 1 {
		t.Fatalf("Attempt = %d, want 1", it.Attempt)
	}
	// Nothing ready: Pop must jump the virtual clock to the due time.
	d, ok = q.Pop()
	if !ok || d.Item != it {
		t.Fatal("retry item did not dispatch")
	}
	if d.Waited != 0.5 || q.Stats().Clock != 0.5 {
		t.Fatalf("waited=%v clock=%v, want 0.5/0.5", d.Waited, q.Stats().Clock)
	}
	q.ReleaseItem(d.Item)

	// Exponential doubling: attempt 2 waits 1.0 s.
	if backoff, due, _ = q.Retry(it); backoff != 1.0 || due != 1.5 {
		t.Fatalf("retry 2: backoff=%v due=%v, want 1.0/1.5", backoff, due)
	}
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
	// Attempt 3 waits 2.0 s and exhausts the budget.
	if backoff, _, _ = q.Retry(it); backoff != 2.0 {
		t.Fatalf("retry 3: backoff=%v, want 2.0", backoff)
	}
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
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
	it := item(1, Key{}, 0)
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
	q.Push(item(1, k, 0))
	d, ok := q.Pop()
	if !ok || !d.Parked {
		t.Fatalf("expected a parked dispatch, got %+v ok=%v", d, ok)
	}
	q.ReleaseItem(d.Item)
	if d.Item.ID != 1 || d.HalfOpen {
		t.Fatalf("parked dispatch %+v, want item 1 and no trial", d)
	}
	if s := q.Stats(); s.BreakerTrips != 1 {
		t.Fatalf("stats after park: %+v", s)
	}

	// Put the probe in the retry lane and move the clock to reopenAt:
	// the cooldown has expired, and the next dispatch is the single
	// half-open trial.
	probe := item(2, k, 0)
	q.Push(probe)
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
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
	q.Push(item(3, k, 0))
	d2, _ := q.Pop()
	if !d2.Parked {
		t.Fatal("second dispatch during half-open trial was not parked")
	}
	q.ReleaseItem(d.Item)
	q.ReleaseItem(d2.Item)

	// The trial succeeds: breaker closes.
	if _, closed := q.Report(k, Success); !closed {
		t.Fatal("successful trial did not close the breaker")
	}
	if q.OpenBreakers() != 0 {
		t.Fatal("breaker still open after close")
	}
	q.Push(item(4, k, 0))
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
	q.Push(item(1, k, 0))
	d, _ := q.Pop()
	if !d.HalfOpen {
		t.Fatal("post-cooldown dispatch was not the half-open trial")
	}
	q.ReleaseItem(d.Item)
	opened, _ := q.Report(k, Rollback)
	if !opened {
		t.Fatal("rolled-back trial did not re-open the breaker")
	}
	// The cooldown restarted: items park again.
	q.Push(item(2, k, 0))
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
	it := item(1, k, 0)
	it.Breakable = false // e.g. a baseline or sweep job on the same pair
	q.Push(it)
	if d, _ := q.Pop(); d.Parked {
		t.Fatal("non-breakable item was parked")
	}
}

func TestEvictDrainsReadyThenRetries(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 2})
	a := item(1, Key{Bench: "a"}, 0)
	b := item(2, Key{Bench: "b"}, 0)
	q.Push(a)
	q.Push(b)
	d, _ := q.Pop() // dispatch a
	q.ReleaseItem(d.Item)
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

func TestQuotaBlockedRetryDoesNotAdvanceClock(t *testing.T) {
	q := NewQueue(Config{Quota: 1, MaxRetries: 2})
	k := Key{Bench: "pr"}
	a := item(1, k, 0)
	b := item(2, k, 0)
	q.Push(b)
	q.ReleaseItem(pop(t, q)) // b runs once...
	q.Retry(b)               // ...and lands in the retry lane
	q.Push(a)
	pop(t, q) // a in flight, holding k's only slot
	// b waits in the retry lane but its key is at quota: the clock must
	// not jump, and Pop must report a stall.
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop dispatched a quota-blocked retry")
	}
	if q.Stats().Clock != 0 {
		t.Fatalf("clock advanced to %v for a quota-blocked retry", q.Stats().Clock)
	}
	q.ReleaseItem(a)
	d, ok := q.Pop()
	if !ok || d.Item != b {
		t.Fatal("released slot did not admit the retry")
	}
	if q.Stats().Clock == 0 {
		t.Fatal("clock did not advance when the retry became admissible")
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
		it := item(i+1, k, 0)
		q.Push(it)
		q.ReleaseItem(pop(t, q))
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
	q2.Push(item(9, k, 0))
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

// TestTenantQuotaCapsDispatch: with TenantQuota=2, a tenant with three
// waiting items across three distinct keys dispatches only two, while an
// untenanted item (and another tenant's item) still flow.
func TestTenantQuotaCapsDispatch(t *testing.T) {
	q := NewQueue(Config{TenantQuota: 2})
	for i := 0; i < 3; i++ {
		it := item(i, Key{Bench: "a", Input: string(rune('x' + i))}, 5)
		it.Tenant = "alice"
		q.Push(it)
	}
	bob := item(10, Key{Bench: "b"}, 0)
	bob.Tenant = "bob"
	q.Push(bob)
	q.Push(item(20, Key{Bench: "c"}, 0)) // untenanted: exempt

	if got := popID(t, q); got != 0 {
		t.Fatalf("first dispatch = %d, want alice/0", got)
	}
	if got := popID(t, q); got != 1 {
		t.Fatalf("second dispatch = %d, want alice/1", got)
	}
	// Alice is at her quota: her third item must be skipped in favour of
	// bob and the untenanted item despite its higher priority.
	if got := popID(t, q); got != 10 {
		t.Fatalf("third dispatch = %d, want bob/10 (alice at quota)", got)
	}
	if got := popID(t, q); got != 20 {
		t.Fatalf("fourth dispatch = %d, want untenanted/20", got)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("alice's third item dispatched while she was at quota")
	}
	if q.Stats().QuotaStalls == 0 {
		t.Fatal("tenant-blocked Pop did not count a quota stall")
	}
	// Releasing one of alice's items frees the slot.
	first := &Item{ID: 0, Key: Key{Bench: "a", Input: "x"}, Tenant: "alice"}
	q.ReleaseItem(first)
	if got := popID(t, q); got != 2 {
		t.Fatalf("post-release dispatch = %d, want alice/2", got)
	}
}

// TestTenantDepthAccounting: depth follows Push/dispatch/Retry/EvictWhere, and
// zeroed tenants are dropped from the map.
func TestTenantDepthAccounting(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 2})
	a := item(1, Key{Bench: "a"}, 0)
	a.Tenant = "alice"
	b := item(2, Key{Bench: "b"}, 0)
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

// TestUntenantedExemptFromTenantQuota: empty tenants never block even with
// TenantQuota=1.
func TestUntenantedExemptFromTenantQuota(t *testing.T) {
	q := NewQueue(Config{TenantQuota: 1})
	for i := 0; i < 4; i++ {
		q.Push(item(i, Key{Bench: "a", Input: string(rune('0' + i))}, 0))
	}
	for i := 0; i < 4; i++ {
		if got := popID(t, q); got != i {
			t.Fatalf("dispatch %d = %d; untenanted items must be exempt", i, got)
		}
	}
	if q.TenantDepths() != nil {
		t.Fatal("untenanted items leaked into tenant depth accounting")
	}
}

func TestRetuneLaneFixedDelayAndBudget(t *testing.T) {
	q := NewQueue(Config{MaxRetunes: 2})
	it := item(1, Key{Bench: "bc-drift"}, 0)
	q.Push(it)
	d, _ := q.Pop()
	q.ReleaseItem(d.Item)

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
	q.ReleaseItem(d.Item)

	// Second re-tune: same fixed delay, no exponential growth.
	if delay, _, _ = q.Retune(it, 1); delay != retuneDelay {
		t.Fatalf("retune 2: delay=%v, want fixed 0.5", delay)
	}
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
	if _, _, ok = q.Retune(it, 2); ok || q.CanRetune(2) {
		t.Fatal("retune 3 admitted past MaxRetunes=2")
	}

	if s := q.Stats(); s.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (re-tunes must not count as retries)", s.Retries)
	}
}

func TestRetuneDisabledByDefault(t *testing.T) {
	q := NewQueue(Config{MaxRetries: 3})
	it := item(1, Key{}, 0)
	q.Push(it)
	q.Pop()
	if _, _, ok := q.Retune(it, 0); ok {
		t.Fatal("queue without MaxRetunes admitted a re-tune")
	}
}

func TestRetuneIndependentOfRetryBudget(t *testing.T) {
	// An item that exhausted its retries can still re-tune, and vice versa.
	q := NewQueue(Config{MaxRetries: 1, MaxRetunes: 1})
	it := item(1, Key{Bench: "pr"}, 0)
	q.Push(it)
	d, _ := q.Pop()
	q.ReleaseItem(d.Item)

	if _, _, ok := q.Retry(it); !ok {
		t.Fatal("retry 1 refused")
	}
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
	if _, _, ok := q.Retry(it); ok {
		t.Fatal("retry 2 admitted past budget")
	}
	if _, _, ok := q.Retune(it, 0); !ok {
		t.Fatal("re-tune refused after retries were spent")
	}
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
	if it.Attempt != 1 {
		t.Fatalf("Attempt=%d, want 1", it.Attempt)
	}
}

func TestRetuneTenantDepthAccounting(t *testing.T) {
	q := NewQueue(Config{MaxRetunes: 1})
	it := &Item{ID: 1, Key: Key{Bench: "bc-drift"}, Tenant: "team-a", Breakable: true}
	q.Push(it)
	d, _ := q.Pop()
	q.ReleaseItem(d.Item)
	if got := q.TenantDepth("team-a"); got != 0 {
		t.Fatalf("depth after pop = %d, want 0", got)
	}
	if _, _, ok := q.Retune(it, 0); !ok {
		t.Fatal("re-tune refused")
	}
	if got := q.TenantDepth("team-a"); got != 1 {
		t.Fatalf("depth after re-tune = %d, want 1 (lane must be depth-accounted)", got)
	}
	d, _ = q.Pop()
	q.ReleaseItem(d.Item)
	if got := q.TenantDepth("team-a"); got != 0 {
		t.Fatalf("depth after re-dispatch = %d, want 0", got)
	}
}
