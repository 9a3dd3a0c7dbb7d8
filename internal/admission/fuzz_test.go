package admission

import "testing"

// refItem is one item as the reference model sees it.
type refItem struct {
	id, seq, attempt int
	key              Key
	breakable        bool
	due              float64
}

type refBreaker struct {
	consecutive    int
	open, halfOpen bool
	reopenAt       float64
}

// refQueue is the dispatch rule FuzzQueueOrder holds the queue to, written
// without the queue's code: the ready item with the lowest seq dispatches
// first; the waiting lane Retry and Retune share stays sorted by due time
// (equal dues in park order); the virtual clock moves only when nothing is
// ready, to the lane head's due time, promoting everything due by then.
// Ready items keep list order (pushes, then promotions in lane order),
// which is the order EvictWhere walks.
type refQueue struct {
	cfg         Config
	ready, lane []*refItem
	breakers    map[Key]*refBreaker
	clock       float64
	seq         int
	stats       Stats
}

func (m *refQueue) push(it *refItem) {
	it.seq = m.seq
	m.seq++
	m.ready = append(m.ready, it)
}

func (m *refQueue) promote() {
	var kept []*refItem
	for _, it := range m.lane {
		if it.due <= m.clock {
			m.ready = append(m.ready, it)
		} else {
			kept = append(kept, it)
		}
	}
	m.lane = kept
}

// pop returns the dispatched item, the virtual time waited for it, and its
// breaker posture; nil when nothing waits.
func (m *refQueue) pop() (it *refItem, waited float64, parked, halfOpen bool) {
	m.promote()
	if len(m.ready) == 0 {
		if len(m.lane) == 0 {
			return nil, 0, false, false
		}
		waited = m.lane[0].due - m.clock
		m.clock = m.lane[0].due
		m.stats.BackoffWait += waited
		m.promote()
	}
	at := 0
	for i, r := range m.ready {
		if r.seq < m.ready[at].seq {
			at = i
		}
	}
	it = m.ready[at]
	m.ready = append(m.ready[:at:at], m.ready[at+1:]...)
	if b := m.breakers[it.key]; it.breakable && m.cfg.BreakerThreshold > 0 && b != nil && b.open {
		if m.clock >= b.reopenAt && !b.halfOpen {
			b.halfOpen, halfOpen = true, true
		} else {
			parked = true
		}
	}
	return it, waited, parked, halfOpen
}

func (m *refQueue) park(it *refItem, wait float64) float64 {
	it.due = m.clock + wait
	at := len(m.lane)
	for i, r := range m.lane {
		if r.due > it.due {
			at = i
			break
		}
	}
	m.lane = append(m.lane[:at:at], append([]*refItem{it}, m.lane[at:]...)...)
	return it.due
}

func (m *refQueue) retry(it *refItem) (backoff, due float64, ok bool) {
	if m.cfg.MaxRetries <= 0 || it.attempt >= m.cfg.MaxRetries {
		return 0, 0, false
	}
	it.attempt++
	backoff = backoffBase
	for i := 1; i < it.attempt && backoff < backoffCap; i++ {
		backoff *= 2
	}
	backoff = min(backoff, backoffCap)
	m.stats.Retries++
	return backoff, m.park(it, backoff), true
}

func (m *refQueue) retune(it *refItem, granted int) (delay, due float64, ok bool) {
	if m.cfg.MaxRetunes <= 0 || granted >= m.cfg.MaxRetunes {
		return 0, 0, false
	}
	return retuneDelay, m.park(it, retuneDelay), true
}

func (m *refQueue) report(k Key, o Outcome) (opened, closed bool) {
	if m.cfg.BreakerThreshold <= 0 {
		return false, false
	}
	b := m.breakers[k]
	if b == nil {
		b = &refBreaker{}
		m.breakers[k] = b
	}
	trip := func() {
		b.halfOpen = false
		b.open = true
		b.reopenAt = m.clock + breakerCooldown
		m.stats.BreakerTrips++
		opened = true
	}
	switch {
	case o == Success:
		b.consecutive = 0
		closed = b.open
		b.open, b.halfOpen = false, false
	case o == Rollback:
		b.consecutive++
		if b.halfOpen || (!b.open && b.consecutive >= m.cfg.BreakerThreshold) {
			trip()
		}
	case o == Failure && b.halfOpen:
		trip()
	}
	return opened, closed
}

// evict removes the first waiting item match accepts: ready list first,
// then the lane.
func (m *refQueue) evict(match func(id int) bool) *refItem {
	for _, list := range []*[]*refItem{&m.ready, &m.lane} {
		for i, it := range *list {
			if match(it.id) {
				*list = append((*list)[:i:i], (*list)[i+1:]...)
				return it
			}
		}
	}
	return nil
}

// FuzzQueueOrder drives random call sequences through the queue's exported
// API and checks every dispatch (item, Waited, Parked, HalfOpen), every
// Retry, Retune, Report and EvictWhere answer, Len and Stats against
// refQueue. The input's first bytes pick the Config and an optional Import
// before the first push; each later byte pair is one call.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{3, 2, 2, 0, 0, 1, 0, 2, 1, 0, 2, 0, 1, 0, 2, 1, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{2, 1, 1, 9, 0, 5, 0, 1, 0, 4, 1, 2, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 6, 3})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 4, 1, 4, 1, 1, 0, 5, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{MaxRetries: int(data[0] % 4), BreakerThreshold: int(data[1] % 4), MaxRetunes: int(data[2] % 3)}
		q := NewQueue(cfg)
		m := &refQueue{cfg: cfg, breakers: make(map[Key]*refBreaker)}
		keys := []Key{{Bench: "pr", Input: "a"}, {Bench: "pr", Input: "b"}, {Bench: "cg"}}
		if imp := data[3]; imp != 0 {
			st := PersistState{
				Clock: float64(imp) / 4,
				Stats: Stats{Retries: int(imp % 5), BackoffWait: float64(imp%7) / 2, BreakerTrips: int(imp % 3)},
			}
			if imp%2 == 1 {
				bs := BreakerState{Key: keys[imp%3], Consecutive: int(imp % 4), Open: true, ReopenAt: float64(imp) / 2}
				bs.HalfOpen = imp%4 == 3
				st.Breakers = append(st.Breakers, bs)
			}
			q.Import(st)
			m.clock, m.stats = st.Clock, st.Stats
			for _, bs := range st.Breakers {
				b := &refBreaker{consecutive: bs.Consecutive, open: bs.Open, reopenAt: bs.ReopenAt}
				if bs.HalfOpen {
					b.reopenAt = m.clock + breakerCooldown
				}
				m.breakers[bs.Key] = b
			}
		}

		items := map[int]*Item{}
		ref := map[int]*refItem{}
		var out []int // dispatched items, which Retry and Retune may re-admit
		nextID := 0
		take := func(arg byte) (int, bool) {
			if len(out) == 0 {
				return 0, false
			}
			i := int(arg) % len(out)
			id := out[i]
			out = append(out[:i], out[i+1:]...)
			return id, true
		}
		for i := 4; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, data[i+1]
			switch op {
			case 0: // Push
				k, breakable := keys[arg%3], arg&4 != 0
				items[nextID] = &Item{ID: nextID, Key: k, Breakable: breakable, Payload: nextID}
				ref[nextID] = &refItem{id: nextID, key: k, breakable: breakable}
				q.Push(items[nextID])
				m.push(ref[nextID])
				nextID++
			case 1: // Pop
				d, ok := q.Pop()
				want, waited, parked, halfOpen := m.pop()
				if ok != (want != nil) {
					t.Fatalf("op %d: Pop ok=%v, reference has an item: %v", i, ok, want != nil)
				}
				if !ok {
					break
				}
				if d.Item.ID != want.id || d.Waited != waited || d.Parked != parked || d.HalfOpen != halfOpen {
					t.Fatalf("op %d: Pop = item %d waited %v parked %v half-open %v; reference item %d waited %v parked %v half-open %v",
						i, d.Item.ID, d.Waited, d.Parked, d.HalfOpen, want.id, waited, parked, halfOpen)
				}
				out = append(out, want.id)
			case 2: // Retry
				id, ok := take(arg)
				if !ok {
					break
				}
				b1, due1, ok1 := q.Retry(items[id])
				b2, due2, ok2 := m.retry(ref[id])
				if b1 != b2 || due1 != due2 || ok1 != ok2 || items[id].Attempt != ref[id].attempt {
					t.Fatalf("op %d: Retry(%d) = %v %v %v attempt %d; reference %v %v %v attempt %d",
						i, id, b1, due1, ok1, items[id].Attempt, b2, due2, ok2, ref[id].attempt)
				}
				if !ok1 {
					out = append(out, id)
				}
			case 3: // Retune
				id, ok := take(arg)
				if !ok {
					break
				}
				granted := int(arg>>4) % 3
				d1, due1, ok1 := q.Retune(items[id], granted)
				d2, due2, ok2 := m.retune(ref[id], granted)
				if d1 != d2 || due1 != due2 || ok1 != ok2 {
					t.Fatalf("op %d: Retune(%d, %d) = %v %v %v; reference %v %v %v", i, id, granted, d1, due1, ok1, d2, due2, ok2)
				}
				if !ok1 {
					out = append(out, id)
				}
			case 4: // Report
				k, o := keys[arg%3], Outcome(arg>>2%3)
				o1, c1 := q.Report(k, o)
				o2, c2 := m.report(k, o)
				if o1 != o2 || c1 != c2 {
					t.Fatalf("op %d: Report(%v, %d) = opened %v closed %v; reference %v %v", i, k, o, o1, c1, o2, c2)
				}
			case 5: // EvictWhere: everything (a drain) or one ID
				match := func(int) bool { return true }
				if arg&1 == 1 {
					target := int(arg>>1) % (nextID + 1)
					match = func(id int) bool { return id == target }
				}
				it, ok := q.EvictWhere(func(p any) bool { return match(p.(int)) })
				want := m.evict(match)
				if ok != (want != nil) || (ok && it.ID != want.id) {
					t.Fatalf("op %d: EvictWhere = %v %v; reference %v", i, it, ok, want)
				}
			}
			ws := m.stats
			ws.Clock = m.clock
			if got := q.Stats(); got != ws {
				t.Fatalf("op %d: Stats = %+v; reference %+v", i, got, ws)
			}
			if q.Len() != len(m.ready)+len(m.lane) {
				t.Fatalf("op %d: Len = %d; reference %d", i, q.Len(), len(m.ready)+len(m.lane))
			}
		}
	})
}
